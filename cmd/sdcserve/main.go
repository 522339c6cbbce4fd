// Command sdcserve runs the simulation job service: an HTTP/JSON API
// that accepts EAM molecular-dynamics jobs, multiplexes them over a
// bounded CPU budget on a shard scheduler, caches results by content
// hash, and drains gracefully — SIGTERM/SIGINT checkpoint in-flight
// jobs so a restarted server with the same -state-dir resumes them
// bit-for-bit via the guard resume path.
//
//	sdcserve -addr :8080 -max-jobs 4 -queue 64 -state-dir /var/lib/sdcserve
//
//	curl -s -X POST localhost:8080/jobs \
//	    -d '{"cells":6,"steps":200,"strategy":"sdc","threads":4}'
//	curl -s localhost:8080/jobs/j000000
//	curl -sN localhost:8080/jobs/j000000/events   # live SSE feed
//	curl -s localhost:8080/jobs/j000000/result
//	curl -s -X DELETE localhost:8080/jobs/j000000
//	curl -s localhost:8080/metrics
//
// With -tenants the server requires API keys and enforces per-tenant
// quotas plus weighted fair-share dispatch (see README for the file
// format).
//
// With -store-dir the server also keeps a crash-safe durable result
// store, so completed results survive restarts and an identical spec
// is answered from disk:
//
//	sdcserve -addr :8080 -store-dir /var/lib/sdcserve/store \
//	    -store-max-bytes 1073741824 -store-max-age 720h
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"sdcmd/internal/serve"
	"sdcmd/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		_, _ = fmt.Fprintln(os.Stderr, "sdcserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sdcserve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxJobs := fs.Int("max-jobs", 2, "jobs running concurrently (shards)")
	queue := fs.Int("queue", 16, "admission queue capacity; beyond it submissions get 429")
	cpu := fs.Int("cpu", runtime.NumCPU(), "total worker-thread budget split across shards")
	stateDir := fs.String("state-dir", "", "drain checkpoints + resume manifests (empty = no persistence)")
	checkEvery := fs.Int("check-every", 50, "guard invariant/progress interval per job in steps")
	storeDir := fs.String("store-dir", "", "durable result store directory (empty = memory cache only)")
	storeMaxBytes := fs.Int64("store-max-bytes", 0, "store retention: evict LRU entries beyond this footprint (0 = unbounded)")
	storeMaxAge := fs.Duration("store-max-age", 0, "store retention: evict entries older than this (0 = keep forever)")
	tenantsFile := fs.String("tenants", "", "tenants file enabling API keys, quotas and fair-share (empty = open anonymous access)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tenants *serve.TenantSet
	if *tenantsFile != "" {
		var err error
		if tenants, err = serve.LoadTenants(*tenantsFile); err != nil {
			return err
		}
	}

	// First SIGINT/SIGTERM starts the graceful drain; a second one kills
	// the process the default way (NotifyContext unregisters).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var st *store.Store
	if *storeDir != "" {
		// Open never fails: an unusable directory starts the store in
		// degraded memory-only mode and the service still comes up.
		st = store.Open(store.Options{
			Dir:      *storeDir,
			MaxBytes: *storeMaxBytes,
			MaxAge:   *storeMaxAge,
			FS:       storeFS(),
		})
		if st.Degraded() {
			fmt.Printf("sdcserve: store %s unusable, serving memory-only (degraded)\n", *storeDir)
		}
	}
	sched, err := serve.NewScheduler(serve.Options{
		MaxJobs:    *maxJobs,
		Queue:      *queue,
		CPU:        *cpu,
		StateDir:   *stateDir,
		CheckEvery: *checkEvery,
		Store:      st,
		Tenants:    tenants,
	})
	if err != nil {
		return err
	}
	srv, err := serve.Start(*addr, sched)
	if err != nil {
		// The scheduler never accepted a job; drain just stops the
		// (idle) shard workers.
		_ = sched.Drain()
		return err
	}
	fmt.Printf("sdcserve: listening on %s (shards=%d queue=%d cpu=%d)\n",
		srv.Addr(), *maxJobs, *queue, *cpu)
	if tenants != nil {
		fmt.Printf("sdcserve: tenancy enabled for %d tenant(s)\n", len(tenants.Names()))
	}
	if c := sched.Counters(); c.Resumed > 0 {
		fmt.Printf("sdcserve: resumed %d interrupted job(s) from %s\n", c.Resumed, *stateDir)
	}

	<-ctx.Done()
	fmt.Println("sdcserve: draining (checkpointing in-flight jobs)...")
	// Drain first, Close second: Drain flips the scheduler to draining
	// (late submissions get a clean 503) and flushes a terminal event to
	// every attached SSE stream, so those handlers end on their own and
	// the HTTP shutdown that follows completes without cutting anyone
	// off mid-stream.
	derr := sched.Drain()
	cerr := srv.Close()
	if derr != nil {
		return fmt.Errorf("drain: %w", derr)
	}
	if cerr != nil {
		return fmt.Errorf("http shutdown: %w", cerr)
	}
	fmt.Println("sdcserve: drained cleanly")
	return nil
}
