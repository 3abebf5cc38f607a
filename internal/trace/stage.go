package trace

// The pipeline's one stage vocabulary and its one timing hook. Every stage
// time the tool reports — a trace span, a batch's -stats and -stats-json,
// gatord's stage_duration_us{stage} histogram, Result.Elapsed, a BENCH
// record — is a Log entry that Scope.Stage appended where the stage's work
// runs, under a name defined here. The one exception is gatord's admission
// wait (StageQueue), which is not a call to time: the job runner measures
// it from the job's enqueue time.

import "time"

// The stages, in pipeline order. A checker pass is the stage CheckPrefix
// plus its registered id.
const (
	// StageQueue is gatord's admission wait.
	StageQueue = "queue"
	// StageParse is ALite and layout parsing, parse-cache lookups included.
	StageParse = "parse"
	// StageLower is resolution, lowering, layout linking and the id
	// universes (ir.Build; ir.PatchFile on the warm incremental path).
	StageLower = "lower"
	// StageBuild is constraint-graph construction (the paper's Section
	// 4.1), context clones included.
	StageBuild = "build"
	// StageRetract and StageRebuild are the warm incremental re-solve's
	// fact retraction and graph repair.
	StageRetract = "retract"
	StageRebuild = "rebuild"
	// StageSolve is the fixpoint over the inference rules (Section 4.2).
	StageSolve = "solve"
	// StageRender is gatord's report rendering.
	StageRender = "render"
	// CheckPrefix prefixes a checker pass's id to name its stage.
	CheckPrefix = "check:"
)

// Stages lists the fixed stage names in pipeline order.
var Stages = []string{StageQueue, StageParse, StageLower, StageBuild, StageRetract, StageRebuild, StageSolve, StageRender}

// Timing is one completed stage.
type Timing struct {
	Stage string
	Wall  time.Duration
}

// Log is a stage log: the timings of the stages that built one value, in
// execution order.
type Log []Timing

// Wall sums the wall time of the entries named stage (0 when absent).
func (l Log) Wall(stage string) time.Duration {
	var d time.Duration
	for _, t := range l {
		if t.Stage == stage {
			d += t.Wall
		}
	}
	return d
}

// Total sums the wall time of every entry.
func (l Log) Total() time.Duration {
	var d time.Duration
	for _, t := range l {
		d += t.Wall
	}
	return d
}

// Stage is the timing hook: it runs f as the named stage, brackets it in a
// phase-begin/end pair on s (none when s is nil), and appends the stage's
// wall time to *log. It is the only way to open a phase, so spans and stage
// logs cannot disagree. With a nil scope and spare capacity in *log it
// allocates nothing.
func (s *Scope) Stage(log *Log, stage string, f func()) {
	s.phase(KindPhaseBegin, stage)
	start := time.Now()
	f()
	*log = append(*log, Timing{Stage: stage, Wall: time.Since(start)})
	s.phase(KindPhaseEnd, stage)
}

func (s *Scope) phase(kind Kind, stage string) {
	if s == nil {
		return
	}
	s.t.Emit(Event{Kind: kind, App: s.app, Worker: s.worker, Name: stage})
}
