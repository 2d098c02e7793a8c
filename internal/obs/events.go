package obs

import (
	"zenspec/internal/isa"
	"zenspec/internal/pmc"
)

// Counters is the combined 5-counter predictor state carried by predictor
// events. It mirrors predict.Counters field for field; obs is a leaf package
// and cannot import predict.
type Counters struct {
	C0, C1, C2, C3, C4 int
}

// InstEvent is one executed instruction, architectural or transient.
// The cycle stamps partition the instruction's lifetime for the top-down
// attribution the profiler performs: dispatch→issue is front-end and operand
// wait, issue→complete is execution (minus SQStall and Replay, which are
// called out separately), complete→retiredBy is in-order retirement wait.
type InstEvent struct {
	CPU  int
	PC   uint64
	IPA  uint64
	Inst isa.Inst
	// Dispatch is the cycle the instruction dispatched into the window.
	Dispatch int64
	// Issue is the cycle it won an execution port (== Dispatch for
	// portless instructions: NOP, fences, jumps).
	Issue int64
	// Complete is the cycle its result was ready (for a squashed-and-replayed
	// load, the completion of the replay).
	Complete int64
	// SQStall counts cycles the instruction (a load) stalled waiting for
	// older store addresses under an aliasing prediction — the per-PC share
	// of the Fig 2 "SQ Stall Cycles" PMC.
	SQStall int64
	// Replay counts cycles spent inside this instruction's own rollback:
	// the transient window plus the replay penalty of a type-D/G squashed
	// load. Zero for instructions that never rolled back.
	Replay int64
	// RetiredBy is the in-order retirement frontier after this instruction
	// (absolute cycles; the core's clock is monotonic across runs).
	RetiredBy int64
	// Transient marks wrong-path execution inside a speculation window.
	Transient bool
}

// EventClass implements Event.
func (InstEvent) EventClass() Class { return ClassInst }

// EventName implements Event.
func (InstEvent) EventName() string { return "inst" }

// SquashKind says which speculation opened a transient window.
type SquashKind uint8

// Squash kinds.
const (
	// SquashBranch is a branch misprediction window.
	SquashBranch SquashKind = iota
	// SquashBypass is a type-G memory-speculation rollback: a load bypassed
	// an older store that in truth aliased.
	SquashBypass
	// SquashPSF is a type-D rollback: predictive store forwarding forwarded
	// the wrong store's data.
	SquashPSF
	// SquashFault is the transient window a faulting load opens before the
	// fault retires.
	SquashFault
)

func (k SquashKind) String() string {
	switch k {
	case SquashBranch:
		return "branch"
	case SquashBypass:
		return "stl-bypass"
	case SquashPSF:
		return "psf-forward"
	case SquashFault:
		return "fault-window"
	}
	return "squash?"
}

// SquashEvent is one transient episode: wrong-path execution from Start until
// the squash at Verify, after which the architectural path resumes (plus a
// rollback penalty for the memory-speculation kinds).
type SquashEvent struct {
	CPU  int
	Kind SquashKind
	// PC is the instruction that opened the window (the mispredicted branch,
	// the bypassing or forwarded-to load).
	PC uint64
	// Start and Verify bound the window in absolute cycles.
	Start, Verify int64
	// Penalty is the refetch delay charged after Verify (the branch-miss or
	// rollback penalty; zero for fault windows, which end the run).
	Penalty int64
	// Insts is how many wrong-path instructions executed inside the window.
	Insts int
}

// EventClass implements Event.
func (SquashEvent) EventClass() Class { return ClassSquash }

// EventName implements Event.
func (SquashEvent) EventName() string { return "squash" }

// ForwardEvent is store data reaching a load: a store-queue forward (STLF) or
// a predictive store forward (PSF, fired before the store's address was even
// generated).
type ForwardEvent struct {
	CPU      int
	Cycle    int64
	StoreIPA uint64
	LoadIPA  uint64 // zero when the forward happened on a replay path
	VA       uint64 // the data address
	PSF      bool
}

// EventClass implements Event.
func (ForwardEvent) EventClass() Class { return ClassForward }

// EventName implements Event.
func (e ForwardEvent) EventName() string {
	if e.PSF {
		return "psf-forward"
	}
	return "stlf"
}

// PredictEvent is one disambiguator consultation: a load went address-ready
// under an older address-unresolved store and the predictors answered.
type PredictEvent struct {
	CPU      int
	Cycle    int64
	StoreIPA uint64
	LoadIPA  uint64
	// Aliasing and PSF are the prediction; Counters the combined state
	// behind it (zero under SSBD, which pins the Block state globally).
	Aliasing bool
	PSF      bool
	// PSFPHit reports whether the pair had a live PSFP entry — the numerator
	// of the PSFP hit rate metric.
	PSFPHit bool
	Counters
}

// EventClass implements Event.
func (PredictEvent) EventClass() Class { return ClassPredict }

// EventName implements Event.
func (PredictEvent) EventName() string { return "predict" }

// PSFPTrainEvent is one PSFP training update at verification time: the
// C0/C1/C2 movement of the TABLE I row the pair executed.
type PSFPTrainEvent struct {
	CPU      int
	Cycle    int64
	StoreTag uint16
	LoadTag  uint16
	// Type is the execution type ("A".."H") the verification classified.
	Type string
	// Aliasing is the ground truth.
	Aliasing bool
	// Before and After are the C0/C1/C2 halves of the counter state (C3/C4
	// ride on the paired SSBPTransitionEvent).
	Before, After Counters
	// Allocated marks a type-G hard retrain creating the entry.
	Allocated bool
}

// EventClass implements Event.
func (PSFPTrainEvent) EventClass() Class { return ClassPredict }

// EventName implements Event.
func (PSFPTrainEvent) EventName() string { return "psfp-train" }

// SSBPTransitionEvent is one SSBP counter transition at verification time:
// the C3/C4 movement and the TABLE I state edge it implements.
type SSBPTransitionEvent struct {
	CPU     int
	Cycle   int64
	LoadTag uint16
	// Type is the execution type ("A".."H") the verification classified.
	Type string
	// Aliasing is the ground truth.
	Aliasing      bool
	Before, After Counters
	// StateBefore and StateAfter name the TABLE I rows the combined counter
	// state occupied around the transition.
	StateBefore, StateAfter string
}

// EventClass implements Event.
func (SSBPTransitionEvent) EventClass() Class { return ClassPredict }

// EventName implements Event.
func (SSBPTransitionEvent) EventName() string { return "ssbp-transition" }

// PredictorEvictEvent is a capacity eviction inside a predictor: PSFP's LRU
// dropping the oldest pair, or SSBP's random replacement overwriting a tag.
type PredictorEvictEvent struct {
	CPU   int
	Cycle int64
	// Predictor is "psfp" or "ssbp".
	Predictor string
	// StoreTag is zero for SSBP evictions (SSBP selects on the load tag only).
	StoreTag uint16
	LoadTag  uint16
	// Counters is the evicted entry's state (the PSFP half or the SSBP half).
	Counters
}

// EventClass implements Event.
func (PredictorEvictEvent) EventClass() Class { return ClassPredict }

// EventName implements Event.
func (e PredictorEvictEvent) EventName() string { return e.Predictor + "-evict" }

// PredictorFlushEvent is a whole-predictor flush with its cause: the
// hardware's context-switch/syscall PSFP flush, the sleep flush of both, or a
// Section VI-B mitigation flush.
type PredictorFlushEvent struct {
	CPU   int
	Cycle int64
	// Predictor is "psfp" or "ssbp".
	Predictor string
	// Entries is how many live entries the flush discarded.
	Entries int
	// Cause is "context-switch", "syscall", "sleep" or "mitigation".
	Cause string
}

// EventClass implements Event.
func (PredictorFlushEvent) EventClass() Class { return ClassPredict }

// EventName implements Event.
func (PredictorFlushEvent) EventName() string { return "predictor-flush" }

// CacheEvent is cache-hierarchy state movement: a line fill on a miss, the
// capacity eviction a fill displaced, or an explicit CLFLUSH invalidation.
type CacheEvent struct {
	Cycle int64
	// Kind is "fill", "evict" or "flush".
	Kind string
	// Level is "L1", "L2", "L3" (empty for whole-hierarchy flushes).
	Level string
	// Line is the 64-byte-aligned physical line address.
	Line uint64
	// Victim is the line a fill displaced; valid when Kind is "evict".
	Victim uint64
}

// EventClass implements Event.
func (CacheEvent) EventClass() Class { return ClassCache }

// EventName implements Event.
func (e CacheEvent) EventName() string { return "cache-" + e.Kind }

// ProbeEvent is one Flush+Reload probe verdict: the timed reload of one slot
// against the calibrated threshold.
type ProbeEvent struct {
	CPU       int
	Cycle     int64
	Slot      int
	VA        uint64
	Cycles    uint64
	Threshold uint64
	Hit       bool
}

// EventClass implements Event.
func (ProbeEvent) EventClass() Class { return ClassProbe }

// EventName implements Event.
func (ProbeEvent) EventName() string { return "probe" }

// ContextSwitchEvent is one OS context switch, with the flush and salt
// consequences the paper reverse engineered riding along.
type ContextSwitchEvent struct {
	CPU   int
	Cycle int64
	// FromPID is zero when the thread was idle before the switch.
	FromPID, ToPID   int
	FromName, ToName string
	// FromDomain/ToDomain are the security domains ("user", "vm", "kernel");
	// a cross-domain switch is where Vulnerability 1 lives.
	FromDomain, ToDomain string
	// PSFPFlushed is always true (the hardware flushes PSFP on every
	// switch); SSBPFlushed only under the flush-on-switch mitigation;
	// SaltRotated under the rotate-salt mitigation.
	PSFPFlushed, SSBPFlushed, SaltRotated bool
}

// EventClass implements Event.
func (ContextSwitchEvent) EventClass() Class { return ClassKernel }

// EventName implements Event.
func (ContextSwitchEvent) EventName() string { return "context-switch" }

// FaultEvent is one injected fault, machine-level (predictor pollution,
// cache eviction noise) or trial-level (forced errors, panics, overruns).
type FaultEvent struct {
	Cycle int64
	// Kind is "psfp-evict", "ssbp-flip", "spurious-train", "cache-evict",
	// "trial-error", "trial-panic" or "trial-overrun".
	Kind string
	// Count is how many units the injection touched (lines flushed, entries
	// trained); 1 for single-target faults.
	Count int
	// Experiment, Trial and Attempt locate a trial-level fault; empty/zero
	// for machine-level ones.
	Experiment string
	Trial      int
	Attempt    int
}

// EventClass implements Event.
func (FaultEvent) EventClass() Class { return ClassFault }

// EventName implements Event.
func (e FaultEvent) EventName() string { return "fault-" + e.Kind }

// PMCEvent is one performance-monitor-counter readout: the delta of the
// Fig 2 counter set accumulated by a single program run on one hardware
// thread. It bridges pmc.Counters into the metrics registry (as "pmc.<key>"
// counters) and gives the profiler the run-level ground truth its per-PC
// attribution must sum to.
type PMCEvent struct {
	CPU   int
	Cycle int64
	// Counts is the per-run delta (pmc.Counters.Delta of the run's start and
	// end snapshots).
	Counts pmc.Counters
}

// EventClass implements Event.
func (PMCEvent) EventClass() Class { return ClassPMC }

// EventName implements Event.
func (PMCEvent) EventName() string { return "pmc" }
