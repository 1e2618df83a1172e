// Package core is the context-discipline fixture: conjured root
// contexts and ctx-less callers of the evaluation verbs.
package core

import "context"

// Evaluator stands in for the real evaluation data plane.
type Evaluator struct{}

func (Evaluator) Evaluate(ctx context.Context, rule int)           {}
func (Evaluator) EvaluateAll(ctx context.Context, pop []int) error { return nil }
func (Evaluator) MatchBatch(ctx context.Context, rules []int) [][]int {
	return nil
}

// Train takes and passes a context — the blessed shape.
func Train(ctx context.Context, e Evaluator, pop []int) error {
	return e.EvaluateAll(ctx, pop)
}

// TrainDetached conjures a root context mid-stack.
func TrainDetached(e Evaluator, pop []int) error {
	return e.EvaluateAll(context.Background(), pop) // want "context.Background outside func main severs the cancellation chain" // want "TrainDetached calls EvaluateAll but takes no context.Context"
}

// Match calls an evaluation verb without taking a context at all.
func Match(e Evaluator, rules []int) [][]int {
	ctx := context.TODO()           // want "context.TODO outside func main severs the cancellation chain"
	return e.MatchBatch(ctx, rules) // want "Match calls MatchBatch but takes no context.Context"
}

// Step threads its context into the single-rule verb — blessed.
func Step(ctx context.Context, e Evaluator, child int) {
	e.Evaluate(ctx, child)
}

// StepDetached evaluates one offspring without taking a context.
func StepDetached(e Evaluator, child int) {
	e.Evaluate(nil, child) // want "StepDetached calls Evaluate but takes no context.Context"
}
