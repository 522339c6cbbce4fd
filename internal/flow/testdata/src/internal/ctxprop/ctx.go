// Package ctxprop seeds blocking operations reachable from
// ctx-accepting entry points; each must be flagged by ctx-propagation.
package ctxprop

import (
	"context"
	"sync"
	"time"
)

// BlockedRecv receives with no ctx escape.
func BlockedRecv(ctx context.Context, ch chan int) int {
	return <-ch
}

// Sleepy sleeps on the entry's own thread.
func Sleepy(ctx context.Context) {
	time.Sleep(time.Second)
}

// DeafSelect has no default, ctx.Done or time-channel case.
func DeafSelect(ctx context.Context, a, b chan int) {
	select {
	case <-a:
	case <-b:
	}
}

// Entry reaches a blocking helper one hop down the call graph.
func Entry(ctx context.Context, ch chan int) {
	relay(ch)
}

func relay(ch chan int) {
	ch <- 1
}

// WaitAll waits on a WaitGroup with no bound.
func WaitAll(ctx context.Context, wg *sync.WaitGroup) {
	wg.Wait()
}

// runner is implemented by blockyRunner; Drive's interface call must
// bridge to the concrete method.
type runner interface {
	Go()
}

type blockyRunner struct {
	ch chan int
}

// Go blocks on a bare receive; reached from Drive via the bridge.
func (b blockyRunner) Go() {
	<-b.ch
}

// Drive is the ctx entry that calls through the interface.
func Drive(ctx context.Context, r runner) {
	r.Go()
}

// waiter blocks on a bare receive; Hooked reaches it only through the
// func-typed field of a package-level table set from a method
// expression.
type waiter struct {
	ch chan int
}

func (w *waiter) block() {
	<-w.ch
}

type hooks struct {
	wait func(*waiter)
}

var waitHooks = hooks{wait: (*waiter).block}

// Hooked is the ctx entry that calls through the field.
func Hooked(ctx context.Context, w *waiter) {
	waitHooks.wait(w)
}
