package serve

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"sdcmd/internal/telemetry"
)

// TestMetricsMergesJobsInIDOrder starts a scheduler over two drain
// manifests and admits two fresh jobs after them. The job table must
// list the four in ID order, which for IDs below j1000000 is the order
// of sort.Strings, and Metrics must sum their recorders in that order,
// so its float sums keep their bits.
func TestMetricsMergesJobsInIDOrder(t *testing.T) {
	dir := t.TempDir()
	files := map[string]manifest{}
	for _, m := range []struct {
		id   string
		seed int64
	}{{"j000007", 71}, {"j000003", 72}} {
		spec, err := smallSpec(m.seed, 10).normalized(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		files[m.id+".json"] = manifest{ID: m.id, Spec: spec}
	}
	writeManifests(t, dir, files)
	sched, err := NewScheduler(Options{MaxJobs: 1, CPU: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sched.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
	}()
	for _, seed := range []int64{73, 74} {
		if _, code, err := sched.Submit(smallSpec(seed, 10)); code != SubmitCreated {
			t.Fatalf("submit seed %d: code %v, %v", seed, code, err)
		}
	}
	want := []string{"j000003", "j000007", "j000008", "j000009"}
	for _, id := range want {
		waitSchedDone(t, sched, id)
	}

	sched.mu.Lock()
	var order []string
	for _, j := range sched.order {
		order = append(order, j.id)
	}
	var sorted []string
	for id := range sched.jobs {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	var recs []*telemetry.Recorder
	for _, id := range sorted {
		if r := sched.jobs[id].rec; r != nil {
			recs = append(recs, r)
		}
	}
	sched.mu.Unlock()
	if !slices.Equal(order, want) || !slices.Equal(sorted, want) {
		t.Fatalf("job order %v, sorted IDs %v; want %v", order, sorted, want)
	}
	if len(recs) != len(want) {
		t.Fatalf("%d recorders, want one per job", len(recs))
	}
	var merged telemetry.Metrics
	for _, r := range recs {
		merged = mergeMetrics(merged, r.Snapshot())
	}
	got := sched.Metrics()
	got.UptimeSeconds = 0
	if !reflect.DeepEqual(got, merged) {
		t.Errorf("Metrics %+v, want the sorted-ID merge %+v", got, merged)
	}
}

// BenchmarkSchedulerMetrics calls Metrics over 20 001 jobs that ran no
// MD, as cache hits do, and never finish, so none retires: far more
// than the retention window keeps at any rate the service sustains. It
// times what Metrics does under the scheduler mutex: copying the
// retired total and collecting the retained recorders in ID order.
func BenchmarkSchedulerMetrics(b *testing.B) {
	sched, err := NewScheduler(Options{MaxJobs: 1, CPU: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		if err := sched.Drain(); err != nil {
			b.Error(err)
		}
	}()
	sched.mu.Lock()
	for range 20001 {
		sched.newJobLocked("", JobSpec{}, "")
	}
	sched.mu.Unlock()
	b.ResetTimer()
	for range b.N {
		metricsSink = sched.Metrics()
	}
}

// metricsSink keeps BenchmarkSchedulerMetrics' calls from being
// optimized away.
var metricsSink telemetry.Metrics
