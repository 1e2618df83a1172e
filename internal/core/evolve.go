package core

import (
	"context"
	"fmt"

	"repro/internal/rng"
	"repro/internal/series"
)

// Stats tracks the trajectory of one execution for diagnostics,
// ablation benches and tests.
type Stats struct {
	Generations  int     // steady-state iterations performed
	Replacements int     // offspring that entered the population
	BestFitness  float64 // best fitness at the end
	MeanFitness  float64 // mean fitness at the end
	ValidRules   int     // rules above the fitness floor at the end
	EMaxResolved float64 // the EMAX actually used (after auto-resolution)
}

// Execution is one evolutionary run: a population of rules evolved
// against a training dataset with the paper's steady-state Michigan
// strategy.
type Execution struct {
	Config Config
	Pop    []*Rule
	Eval   *Evaluator
	Stats  Stats

	src      *rng.Source
	mut      *mutator
	predSpan float64
	tel      *runTelemetry // nil = telemetry disabled (see Runtime.Telemetry)
	bestSeen float64       // best fitness the telemetry gauges have reported
}

// NewExecution prepares (but does not run) an execution: it validates
// the configuration, resolves EMax against the data when unset,
// initializes the population with the paper's stratified procedure and
// evaluates it. The context bounds that initial evaluation — over a
// remote backend it is one RPC batch, which must stay cancellable.
func NewExecution(ctx context.Context, cfg Config, data *series.Dataset) (*Execution, error) {
	if cfg.D != data.D {
		return nil, fmt.Errorf("%w: config D=%d but dataset D=%d", ErrConfig, cfg.D, data.D)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lo, hi := data.TargetRange()
	emax := cfg.EMax
	if emax == 0 {
		// Auto-resolution: 10% of the training output span. EMAX is the
		// error a rule must beat to be viable; a fixed fraction of the
		// span transfers across the paper's differently-scaled domains.
		emax = 0.1 * (hi - lo)
		if emax == 0 {
			emax = 1
		}
	}

	ex := &Execution{
		Config: cfg,
		Eval: NewEvaluator(data, emax, cfg.FMin, cfg.Ridge, cfg.Runtime.Workers,
			EvalOptions{Backend: cfg.Runtime.Backend, Cache: cfg.Runtime.Cache, Telemetry: cfg.Runtime.Telemetry}),
		src:      rng.New(cfg.Seed),
		predSpan: hi - lo,
		tel:      newRunTelemetry(cfg.Runtime.Telemetry),
	}
	ex.Stats.EMaxResolved = emax

	// Per-lag data bounds for the mutator.
	lagLo := make([]float64, data.D)
	lagHi := make([]float64, data.D)
	for j := 0; j < data.D; j++ {
		lagLo[j], lagHi[j] = data.Inputs[0][j], data.Inputs[0][j]
	}
	for _, row := range data.Inputs {
		for j, v := range row {
			if v < lagLo[j] {
				lagLo[j] = v
			}
			if v > lagHi[j] {
				lagHi[j] = v
			}
		}
	}
	ex.mut = newMutator(cfg.MutationRate, cfg.MutationSpan, cfg.WildcardRate, lagLo, lagHi)

	ex.Pop = InitStratified(data, cfg.PopSize)
	// Construction is bounded work (one batch over PopSize rules), but
	// over a remote backend that batch is an RPC: the caller's context
	// must reach it so a cancelled run never blocks in construction.
	if err := ex.Eval.EvaluateAll(ctx, ex.Pop); err != nil {
		return nil, fmt.Errorf("core: initial population evaluation: %w", err)
	}
	ex.noteInitialBest()
	return ex, nil
}

// step is the Step implementation; the exported wrapper (telemetry.go)
// adds the optional per-generation instrumentation. ctx reaches the
// offspring evaluation, so over a remote backend the match RPC is
// cancellable and traced under the caller's span.
func (ex *Execution) step(ctx context.Context) bool {
	cfg := &ex.Config
	var child *Rule
	if ex.src.Bool(cfg.CrossoverRate) {
		pa := selectParent(ex.Pop, cfg.TournamentRounds, ex.src)
		pb := selectParent(ex.Pop, cfg.TournamentRounds, ex.src)
		child = crossover(ex.Pop[pa], ex.Pop[pb], ex.src)
	} else {
		// Mutation-only reproduction (ablation path; the paper always
		// crosses over).
		pa := selectParent(ex.Pop, cfg.TournamentRounds, ex.src)
		child = ex.Pop[pa].Clone()
	}
	ex.mut.mutate(child, ex.src)
	ex.Eval.Evaluate(ctx, child)

	var target int
	switch cfg.Replacement {
	case ReplaceRandom:
		target = ex.src.Intn(len(ex.Pop))
	case ReplaceWorst:
		target = 0
		for i, r := range ex.Pop {
			if r.Fitness < ex.Pop[target].Fitness {
				target = i
			}
		}
	default: // ReplaceNearest — the paper's crowding
		target = nearestIndex(ex.Pop, child, cfg.Distance, ex.predSpan)
	}
	ex.Stats.Generations++
	if child.Fitness > ex.Pop[target].Fitness {
		ex.Pop[target] = child
		ex.Stats.Replacements++
		ex.noteImprovement(child)
		return true
	}
	return false
}

// Run performs the configured number of generations and refreshes the
// final statistics. The context is checked between generations: a
// cancelled or expired context stops the loop promptly and Run returns
// ctx.Err(), with the population left as a valid best-so-far snapshot
// (every rule carries a complete evaluation — steps are atomic, so
// cancellation can never publish a torn individual). A backend fault
// (BackendHealth, e.g. a lost shard server) also stops the loop and
// is returned instead — the population then still holds only complete
// pre-fault evaluations, never results computed from truncated
// matches. A nil error means the full budget was spent.
func (ex *Execution) Run(ctx context.Context) error {
	ctx, sp := ex.spanCtx(ctx, "core.execution")
	defer sp.End()
	for g := 0; g < ex.Config.Generations; g++ {
		if ctx.Err() != nil || ex.Eval.BackendErr() != nil {
			break
		}
		ex.Step(ctx)
	}
	ex.refreshStats()
	ex.noteRunDone()
	if err := ex.Eval.BackendErr(); err != nil {
		return err
	}
	return ctx.Err()
}

// refreshStats recomputes the end-of-run aggregate statistics.
func (ex *Execution) refreshStats() {
	best, sum := ex.Pop[0].Fitness, 0.0
	valid := 0
	for _, r := range ex.Pop {
		if r.Fitness > best {
			best = r.Fitness
		}
		sum += r.Fitness
		if r.Fitness > ex.Config.FMin {
			valid++
		}
	}
	ex.Stats.BestFitness = best
	ex.Stats.MeanFitness = sum / float64(len(ex.Pop))
	ex.Stats.ValidRules = valid
}

// ValidRules returns the rules whose fitness exceeds the floor — the
// individuals the paper's final system keeps from this execution.
func (ex *Execution) ValidRules() []*Rule {
	var out []*Rule
	for _, r := range ex.Pop {
		if r.Fitness > ex.Config.FMin && r.Fitted() {
			out = append(out, r)
		}
	}
	return out
}
