// Package pipemodel implements the analytical model of pipelined query
// execution from Wilschut & Apers [WiA93] / Wilschut & van Gils [WiG93] that
// the paper's Section 2.3.3 builds on:
//
//   - each step of a *linear* pipeline (a join with one base-relation
//     operand and one intermediate operand) adds a constant delay to the
//     response time, independent of operand size;
//
//   - each step of a *bushy* pipeline (a join with two intermediate
//     operands) adds a delay proportional to the size of its operands.
//
// The model predicts response times for pipelined (FP-style) execution from
// first principles: a join's output rate follows its input rate once its
// tables are warm, so a linear step shifts the stream by a fixed latency,
// while a bushy step cannot produce its k-th result before enough tuples of
// *both* intermediate operands have arrived — a data-dependent ramp whose
// expectation grows linearly with the operand cardinality.
//
// The package exists for the Section 2.3.3 reproduction, as a cross-check
// nothing else imports: its own TestModelMatchesSimulatorTrend runs FP on
// the simulator and requires the growth of the bushy response time with
// operand size to agree with these closed forms within a factor of three.
// The harness's pipedelay figure (experiments.PipelineDelay, quoted beside
// the model in EXPERIMENTS.md) measures the trend on the simulator alone.
package pipemodel

import (
	"fmt"
	"math"

	"multijoin/internal/costmodel"
	"multijoin/internal/jointree"
	"multijoin/internal/sim"
)

// Model carries the machine parameters the analytical formulas need.
type Model struct {
	Params costmodel.Params
}

// New returns a model over the given machine parameters.
func New(p costmodel.Params) Model { return Model{Params: p} }

// StepDelay returns the expected delay one pipeline step adds to the
// response time. For a linear step (base operand + intermediate operand) the
// delay is constant: the time to fill and ship one transport batch plus the
// downstream per-batch processing latency. For a bushy step (two
// intermediate operands of the given cardinality, declustered over procs
// processors) the delay additionally grows linearly with the per-processor
// operand size: the last results require nearly all tuples of both operands
// to have arrived, so the completing tail is proportional to card/procs.
func (m Model) StepDelay(bushy bool, card float64, procs int) sim.Duration {
	if procs < 1 {
		procs = 1
	}
	// Constant component: one batch must be produced, shipped and consumed.
	batch := float64(m.Params.BatchTuples)
	perTuple := costmodel.UnitsHash + costmodel.UnitsResult
	constant := m.Params.WorkCost(batch*perTuple) + m.Params.NetLatency
	if !bushy {
		return constant
	}
	// Proportional component: the expected extra wait for matching tuples
	// of the second intermediate operand. With uniformly ordered arrivals,
	// the last fraction of matches is discovered only while the slower
	// operand drains: an expected residual of ~half the per-processor
	// operand processing time.
	perProc := card / float64(procs)
	ramp := m.Params.WorkCost(perProc * (costmodel.UnitsHash + costmodel.UnitsProbe) / 2)
	return constant + ramp
}

// LinearResponse estimates the response time of an FP execution of a linear
// tree over k relations of cardinality card on procs processors: the
// duration of one (dominating) join plus a constant delay per pipeline step.
func (m Model) LinearResponse(k int, card float64, procs int) sim.Duration {
	if k < 2 {
		return 0
	}
	joins := k - 1
	perJoin := procs / joins
	if perJoin < 1 {
		perJoin = 1
	}
	// One join's busy time: both operands hashed (and one probed) plus
	// results created, spread over its processors.
	units := card * (2*costmodel.UnitsHash + costmodel.UnitsNetReceive + costmodel.UnitsResult)
	joinTime := m.Params.WorkCost(units / float64(perJoin))
	return joinTime + sim.Duration(joins)*m.StepDelay(false, card, perJoin)
}

// BushyResponse estimates the response time of an FP execution of a
// long bushy tree (pairs of base relations joined, then chained through
// joins of two intermediates) with depth bushy steps.
func (m Model) BushyResponse(bushySteps int, card float64, procs int) sim.Duration {
	joins := 2*bushySteps + 1
	perJoin := procs / joins
	if perJoin < 1 {
		perJoin = 1
	}
	units := card * (2*costmodel.UnitsHash + costmodel.UnitsNetReceive + costmodel.UnitsResult)
	joinTime := m.Params.WorkCost(units / float64(perJoin))
	return joinTime + sim.Duration(bushySteps)*m.StepDelay(true, card, perJoin)
}

// PipelineKind classifies one join node of a tree for the model: a leaf
// join (two base operands), a linear step (one base, one intermediate) or a
// bushy step (two intermediates).
type PipelineKind int

const (
	// LeafJoin joins two base relations.
	LeafJoin PipelineKind = iota
	// LinearStep joins a base relation with an intermediate result.
	LinearStep
	// BushyStep joins two intermediate results.
	BushyStep
)

// String names the pipeline step kind.
func (k PipelineKind) String() string {
	switch k {
	case LeafJoin:
		return "leaf"
	case LinearStep:
		return "linear-step"
	case BushyStep:
		return "bushy-step"
	default:
		return fmt.Sprintf("PipelineKind(%d)", int(k))
	}
}

// Classify returns the pipeline kind of a join node.
func Classify(n *jointree.Node) PipelineKind {
	switch {
	case n.Build.IsLeaf() && n.Probe.IsLeaf():
		return LeafJoin
	case !n.Build.IsLeaf() && !n.Probe.IsLeaf():
		return BushyStep
	default:
		return LinearStep
	}
}

// CriticalPath estimates the FP response time of an arbitrary tree as the
// longest root-to-leaf accumulation of step delays plus the dominating join
// duration — the generalization used to explain Figures 9-13 trends.
func (m Model) CriticalPath(root *jointree.Node, card float64, procsPerJoin int) sim.Duration {
	if procsPerJoin < 1 {
		procsPerJoin = 1
	}
	units := card * (2*costmodel.UnitsHash + costmodel.UnitsNetReceive + costmodel.UnitsResult)
	joinTime := m.Params.WorkCost(units / float64(procsPerJoin))
	var walk func(n *jointree.Node) sim.Duration
	walk = func(n *jointree.Node) sim.Duration {
		if n == nil || n.IsLeaf() {
			return 0
		}
		var step sim.Duration
		switch Classify(n) {
		case BushyStep:
			step = m.StepDelay(true, card, procsPerJoin)
		default:
			step = m.StepDelay(false, card, procsPerJoin)
		}
		b, p := walk(n.Build), walk(n.Probe)
		if p > b {
			b = p
		}
		return b + step
	}
	return joinTime + walk(root)
}

// CrossoverCard estimates the operand cardinality at which a bushy tree of
// the given depth stops beating a linear tree of the given length under FP —
// the Section 2.3.3 observation that "when the join operands are small, a
// bushy tree works better, and for larger operands linear trees work
// better", solved from the closed forms. It returns +Inf when the bushy tree
// wins at every size (more processors per join can make that happen).
func (m Model) CrossoverCard(linearJoins, bushySteps, procs int) float64 {
	// Find card where LinearResponse == BushyResponse by bisection over a
	// generous range.
	lo, hi := 1.0, 1e9
	f := func(card float64) float64 {
		return float64(m.BushyResponse(bushySteps, card, procs) - m.LinearResponse(linearJoins+1, card, procs))
	}
	if f(hi) < 0 {
		return math.Inf(1)
	}
	if f(lo) > 0 {
		return lo
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) > 0 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}
