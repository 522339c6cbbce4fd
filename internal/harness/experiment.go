package harness

import "io"

// Result is a finished experiment, rendered as the paper's table or as
// machine-readable long-form CSV.
type Result interface {
	Render(w io.Writer) error
	WriteCSV(w io.Writer) error
}

// Experiment is one of the paper's evaluation artifacts.
type Experiment struct {
	Name string
	Run  func(Options) (Result, error)
}

// Experiments lists every experiment, in render order: Table 1, Fig. 9
// and the §II.D reordering gain.
var Experiments = []Experiment{
	{"table1", func(o Options) (Result, error) { return RunTable1(o) }},
	{"fig9", func(o Options) (Result, error) { return RunFig9(o) }},
	{"reorder", func(o Options) (Result, error) { return RunReorder(o) }},
}

// LookupExperiment finds the experiment called name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// ExperimentNames lists the experiments' names in render order.
func ExperimentNames() []string {
	names := make([]string, len(Experiments))
	for i, e := range Experiments {
		names[i] = e.Name
	}
	return names
}
