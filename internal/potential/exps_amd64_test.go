package potential

import (
	"os"
	"strings"
	"testing"
)

// TestExpsBodyInUse requires the init self-check to keep the batched
// body on a CPU that has its features, when no GODEBUG cpu setting
// changes math.Exp's path: a body that failed the check would leave
// Exps correct but slow, and nothing else would show it.
func TestExpsBodyInUse(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "cpu.") {
		t.Skip("GODEBUG changes the CPU features math.Exp uses")
	}
	if haveAVX2FMA() && !batched {
		t.Fatal("the CPU has AVX2 and FMA but the self-check rejected the batched body")
	}
	if !batched {
		t.Skip("no AVX2 and FMA: Exps runs the loop")
	}
	if !expsMatchExp() {
		t.Fatal("the batched body disagrees with math.Exp on the self-check inputs")
	}
}

// TestExpsPortableLoop runs every comparison on the math.Exp loop that
// a CPU without AVX2 or FMA, or a failed self-check, falls back to.
func TestExpsPortableLoop(t *testing.T) {
	defer func(b bool) { batched = b }(batched)
	batched = false
	checkExps(t)
}
