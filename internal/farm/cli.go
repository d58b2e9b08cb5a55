package farm

import (
	"flag"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/farm/corpus"
)

// Flags is a campaign matrix as the command line describes it: the spec
// every cell shares, the targets and strategies it spans, and where the
// results go. RegisterFlags declares these flags once for phtest and
// phfarm, so the two CLIs parse a cell identically.
type Flags struct {
	// Spec carries every engine knob; Resolve fills in Seeds. The cell
	// coordinates (ID, Target, Strategy) stay unset.
	Spec       TaskSpec
	Targets    string
	Strategies string
	Seeds      string
	Out        Outputs
	Verbose    bool
}

// RegisterFlags declares the flags phtest and phfarm share on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Targets, "targets", "all", "comma-separated target bugs, 'all' or 'scale'")
	fs.StringVar(&f.Strategies, "strategies", "all", "comma-separated strategies or 'all'")
	fs.StringVar(&f.Seeds, "seeds", "1", "comma-separated world seeds to sweep")
	fs.IntVar(&f.Spec.MaxExecutions, "max", 500, "max plan executions per (target, strategy, seed)")
	fs.Int64Var(&f.Spec.RandomSeed, "seed", 7, "seed for the random baseline's plan generator")
	fs.IntVar(&f.Spec.RandomN, "random-n", 500, "number of random plans to generate")
	fs.IntVar(&f.Spec.Parallel, "parallel", 0, "in-process worker-pool width per campaign (0 = GOMAXPROCS, 1 = serial)")
	fs.BoolVar(&f.Spec.Guided, "guided", false, "coverage-guided plan scheduling (fuzzer-style)")
	fs.BoolVar(&f.Spec.Prune, "prune", false, "learn read-dependency profiles and defer plans that cannot intersect any consumed delivery")
	fs.BoolVar(&f.Spec.Ranked, "ranked", false, "order kept plans by learned impact score (requires -prune)")
	fs.BoolVar(&f.Spec.Snapshot, "snapshot", false, "fork plan executions from copy-on-write prefix checkpoints (artifacts stay byte-identical to full replay)")
	fs.BoolVar(&f.Spec.KeepGoing, "keep-going", false, "do not cancel on first detection; execute every plan")
	fs.Uint64Var(&f.Spec.EventBudget, "event-budget", 0, "kernel step budget per execution for the livelock watchdog (0 = default)")
	fs.BoolVar(&f.Spec.Explain, "explain", false, "minimize and causally explain every detected failure bucket")
	fs.BoolVar(&f.Spec.Fixed, "fixed", false, "run against the fixed component variants (expect no detections)")
	fs.StringVar(&f.Out.JSONPath, "json", "", "write the campaign artifact (campaign.json) to this path")
	fs.StringVar(&f.Out.NDJSONPath, "ndjson", "", "write the deterministic NDJSON telemetry stream to this path")
	fs.BoolVar(&f.Out.Canonical, "canonical", false, "zero wall-clock and worker-count fields in the artifact (byte-comparable form)")
	fs.StringVar(&f.Out.CorpusDir, "corpus", "", "persistent cross-campaign corpus directory (seed from it, record into it)")
	fs.BoolVar(&f.Verbose, "v", false, "print each campaign, its progress counters and its failure buckets")
	return f
}

// Resolve parses the seed sweep into Spec and resolves the matrix: its
// targets, its strategies, and its cells, one spec per (target, strategy)
// pair, target-major. Every error it returns is a usage error.
func (f *Flags) Resolve() ([]TaskSpec, []core.Target, []core.Strategy, error) {
	targets, err := ResolveTargets(f.Targets, f.Spec.Fixed)
	if err != nil {
		return nil, nil, nil, err
	}
	strategies, err := ResolveStrategies(f.Strategies, f.Spec.RandomSeed, f.Spec.RandomN)
	if err != nil {
		return nil, nil, nil, err
	}
	if f.Spec.Seeds, err = ParseSeeds(f.Seeds); err != nil {
		return nil, nil, nil, err
	}
	// Both lists resolved above, so neither has a repeated name.
	tnames, _ := targetNames(f.Targets)
	snames, _ := strategyNames(f.Strategies)
	return Cells(tnames, snames, f.Spec), targets, strategies, nil
}

// Outputs is where a matrix run's results go. phtest and phfarm share
// it, so a cell's corpus slice, artifact and telemetry come out the same
// from either.
type Outputs struct {
	JSONPath   string
	NDJSONPath string
	CorpusDir  string
	Canonical  bool
}

// LoadCorpus gives each cell its slice of the corpus.
func (o Outputs) LoadCorpus(cells []TaskSpec) error {
	if o.CorpusDir == "" {
		return nil
	}
	for i := range cells {
		cov, err := corpus.Load(o.CorpusDir, cells[i].Target, cells[i].Strategy)
		if err != nil {
			return err
		}
		cells[i].Coverage = cov
	}
	return nil
}

// Write records results into the corpus, then writes the artifact and the
// NDJSON stream, echoing for each result the Config of the cell in cells
// it ran as. An interrupted run records nothing, so a journal's task
// fingerprint still matches when the run resumes; a quarantined cell's
// result is a synthetic failure, not campaign evidence, and is never
// recorded.
func (o Outputs) Write(w io.Writer, cells []TaskSpec, results []campaign.Result, interrupted bool) error {
	byCell := make(map[Cell]TaskSpec, len(cells))
	for _, c := range cells {
		byCell[Cell{Target: c.Target, Strategy: c.Strategy}] = c
	}
	cfgs := make([]campaign.Config, len(results))
	for i, r := range results {
		cfgs[i] = byCell[Cell{Target: r.Target, Strategy: r.Strategy}].Config()
	}
	if o.CorpusDir != "" && !interrupted {
		for _, r := range results {
			if r.Stats.Fleet != nil && r.Stats.Fleet.TasksQuarantined > 0 {
				continue
			}
			if err := corpus.Record(o.CorpusDir, r.Target, r.Strategy, r); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "\ncorpus updated: %s (%d cells)\n", o.CorpusDir, len(results))
	}
	if o.JSONPath != "" {
		artifacts := make([]campaign.Artifact, len(results))
		for i, r := range results {
			artifacts[i] = campaign.BuildArtifact(r, cfgs[i])
			if o.Canonical {
				artifacts[i] = campaign.CanonicalizeArtifact(artifacts[i])
			}
		}
		if err := campaign.WriteArtifactsStatus(o.JSONPath, artifacts, interrupted); err != nil {
			return err
		}
		fmt.Fprintf(w, "\ncampaign artifact: %s (%d campaigns)\n", o.JSONPath, len(artifacts))
	}
	if o.NDJSONPath != "" {
		if err := campaign.WriteNDJSONFile(o.NDJSONPath, results, cfgs); err != nil {
			return err
		}
		fmt.Fprintf(w, "telemetry stream: %s (%d campaigns)\n", o.NDJSONPath, len(results))
	}
	return nil
}

// WriteMatrix prints the detection matrix — one row per target, one
// column per strategy, "?" for a cell with no result — and then each
// detecting plan.
func WriteMatrix(w io.Writer, targets []core.Target, strategies []core.Strategy, results []campaign.Result, multiSeed bool) {
	byCell := map[Cell]campaign.Result{}
	for _, r := range results {
		byCell[Cell{Target: r.Target, Strategy: r.Strategy}] = r
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "bug\toracle\t")
	for _, s := range strategies {
		fmt.Fprintf(tw, "%s\t", s.Name())
	}
	fmt.Fprintln(tw)
	for _, t := range targets {
		fmt.Fprintf(tw, "%s\t%s\t", t.Name, t.Bug)
		for _, s := range strategies {
			r, ok := byCell[Cell{Target: t.Name, Strategy: s.Name()}]
			switch {
			case !ok:
				fmt.Fprintf(tw, "?\t")
			case r.Detected && multiSeed:
				fmt.Fprintf(tw, "YES (%d execs, seed %d)\t", r.Campaign.Executions, r.DetectedSeed)
			case r.Detected:
				fmt.Fprintf(tw, "YES (%d execs)\t", r.Campaign.Executions)
			default:
				fmt.Fprintf(tw, "no (%d execs)\t", r.Campaign.Executions)
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Fprintln(w, "\ndetecting plans:")
	for _, r := range results {
		if r.Detected {
			fmt.Fprintf(w, "  %-14s %-16s %s\n", r.Target, r.Strategy, r.Campaign.DetectingPlan)
		}
	}
}

// WriteCampaign prints one campaign, its progress counters and its
// failure buckets (detected ones starred): the -v view of a cell.
func WriteCampaign(w io.Writer, r campaign.Result) {
	fmt.Fprintln(w, r.Campaign)
	fmt.Fprintf(w, "  %s\n", r.Stats)
	for _, b := range r.Buckets {
		marker := " "
		if b.Detected {
			marker = "*"
		}
		fmt.Fprintf(w, "  %s bucket %s ×%d %v — e.g. %s (seed %d)\n",
			marker, b.Signature, b.Count, b.Oracles, b.ExamplePlan, b.ExampleSeed)
	}
}
