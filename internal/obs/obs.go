// Package obs is the simulator's observability layer: a structured event bus
// threaded through the pipeline, the predictors, the cache hierarchy, the OS
// model, the side channels and the fault injector, plus the consumers built
// on top of it — a metrics registry (monotonic counters and histograms) and a
// Chrome trace-event / Perfetto exporter.
//
// The design constraint is zero cost when disabled and zero feedback when
// enabled. Every emit site is guarded by Bus.On, which is a branch on a nil
// receiver (or an empty subscriber mask) — a machine booted without an
// observer executes exactly the instructions it did before this package
// existed. An attached observer only ever *reads* simulation state that has
// already been computed; nothing downstream of an event can influence timing,
// predictor state or results, so a run observed and a run unobserved are
// byte-identical (asserted by test).
//
// obs is a leaf package: the simulator's internal packages import it, never
// the other way around (isa and pmc excepted, which import nothing of the
// simulator). Event structs therefore carry plain integers and strings rather
// than simulator types — pmc.Counters rides along as the one typed counter
// namespace (PMCEvent).
package obs

// Class partitions events for subscription filtering. A subscriber names the
// classes it wants; emit sites guard on Bus.On(class) so disabled classes
// cost one mask test.
type Class uint8

// Event classes.
const (
	// ClassInst is one executed instruction, architectural or transient.
	ClassInst Class = iota
	// ClassSquash is transient-episode bookkeeping: branch mispredictions,
	// memory-speculation rollbacks (types D and G) and fault windows.
	ClassSquash
	// ClassForward is store-to-load data movement: store-queue forwards and
	// predictive store forwards.
	ClassForward
	// ClassPredict is the speculative memory access predictor machinery:
	// PSFP selections and trainings, SSBP counter transitions per the TABLE I
	// state machine, capacity evictions and flushes.
	ClassPredict
	// ClassCache is the cache hierarchy: line fills, capacity evictions and
	// explicit flushes.
	ClassCache
	// ClassProbe is side-channel measurement: Flush+Reload probe verdicts.
	ClassProbe
	// ClassKernel is the OS model: context switches, domain changes and
	// mitigation flushes.
	ClassKernel
	// ClassFault is the deterministic fault injector: one event per injected
	// fault, machine-level and trial-level.
	ClassFault
	// ClassPMC is performance-monitor-counter readout: one delta of the Fig 2
	// counter set per program run, bridging pmc.Counters into the metrics
	// registry and the cycle-attribution profiler.
	ClassPMC
	// NumClasses bounds the class space.
	NumClasses
)

func (c Class) String() string {
	switch c {
	case ClassInst:
		return "inst"
	case ClassSquash:
		return "squash"
	case ClassForward:
		return "forward"
	case ClassPredict:
		return "predict"
	case ClassCache:
		return "cache"
	case ClassProbe:
		return "probe"
	case ClassKernel:
		return "kernel"
	case ClassFault:
		return "fault"
	case ClassPMC:
		return "pmc"
	}
	return "class?"
}

// AllClasses returns every event class, in declaration order.
func AllClasses() []Class {
	out := make([]Class, NumClasses)
	for i := range out {
		out[i] = Class(i)
	}
	return out
}

// Event is one structured simulation event. Concrete types live in events.go;
// consumers type-switch on them.
type Event interface {
	// EventClass is the subscription class the event belongs to.
	EventClass() Class
	// EventName is a short stable name ("psfp-train", "squash", ...) used by
	// exporters and metrics keys.
	EventName() string
}

// Observer receives events. Implementations attached to machines that run
// trials in parallel (e.g. one Metrics registry shared by a whole experiment
// suite) must be safe for concurrent HandleEvent calls; the per-machine event
// order within one trial is deterministic, the interleaving across trials is
// not.
type Observer interface {
	HandleEvent(e Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(e Event)

// HandleEvent implements Observer.
func (f ObserverFunc) HandleEvent(e Event) { f(e) }

// InstObserver is an optional fast-path extension of Observer for the
// simulator's hottest event. A subscriber that also implements it receives
// ClassInst events through HandleInst with a pointer to a caller-staged
// struct, skipping the interface boxing (and its per-instruction heap
// allocation) that Emit pays. The pointee is reused by the emitter and is
// only valid for the duration of the call: implementations that retain the
// event must copy it (*e).
//
// The delivered value is identical to the InstEvent that Emit would have
// carried; HandleInst(e) must behave exactly like HandleEvent(*e).
type InstObserver interface {
	HandleInst(e *InstEvent)
}

// Options filters a subscription.
type Options struct {
	// Classes selects the event classes delivered to the observer; empty
	// means all classes.
	Classes []Class
}

func (o Options) mask() uint32 {
	if len(o.Classes) == 0 {
		return 1<<NumClasses - 1
	}
	var m uint32
	for _, c := range o.Classes {
		if c < NumClasses {
			m |= 1 << c
		}
	}
	return m
}

type subscriber struct {
	obs  Observer
	inst InstObserver // non-nil when obs also implements the fast path
	mask uint32
	id   uint64
}

// Bus is one machine's event fan-out: a subscriber list with a cached OR of
// all subscriber masks. A nil *Bus is a valid, permanently-disabled bus —
// every component holds a *Bus field and guards emission with On, so an
// unobserved machine pays one nil test per potential event and allocates
// nothing.
//
// Bus is not internally synchronized: a machine emits from its own
// (single-threaded) run loop, and subscriptions are expected to be installed
// between runs, not concurrently with one.
type Bus struct {
	subs   []subscriber
	mask   uint32
	nextID uint64
	// now is the most recent cycle stamp (see StampCycle): components that
	// have no cycle of their own (predictors, caches, the kernel) timestamp
	// their events with it.
	now int64
}

// NewBus returns an empty bus.
func NewBus() *Bus { return &Bus{} }

// On reports whether any subscriber wants class c. It is the emit-site guard:
// safe on a nil bus, one branch plus one mask test when a bus exists.
func (b *Bus) On(c Class) bool {
	return b != nil && b.mask&(1<<c) != 0
}

// Emit delivers e to every subscriber whose mask includes its class. Callers
// guard with On, so Emit may assume b is non-nil.
func (b *Bus) Emit(e Event) {
	m := uint32(1) << e.EventClass()
	for _, s := range b.subs {
		if s.mask&m != 0 {
			s.obs.HandleEvent(e)
		}
	}
}

// EmitInst delivers an instruction event without boxing it: subscribers that
// implement InstObserver get the pointer, everyone else gets the value
// through the ordinary Observer interface. Callers guard with On(ClassInst),
// so EmitInst may assume b is non-nil; e must not be retained past the call.
func (b *Bus) EmitInst(e *InstEvent) {
	const m = uint32(1) << ClassInst
	for i := range b.subs {
		s := &b.subs[i]
		if s.mask&m == 0 {
			continue
		}
		if s.inst != nil {
			s.inst.HandleInst(e)
		} else {
			s.obs.HandleEvent(*e)
		}
	}
}

// Subscribe attaches o with the given options and returns a cancel function
// that detaches exactly this subscription. Subscribing the same observer
// twice creates two independent subscriptions.
func (b *Bus) Subscribe(o Observer, opts Options) (cancel func()) {
	if o == nil {
		return func() {}
	}
	b.nextID++
	id := b.nextID
	inst, _ := o.(InstObserver)
	b.subs = append(b.subs, subscriber{obs: o, inst: inst, mask: opts.mask(), id: id})
	b.recomputeMask()
	return func() {
		for i := range b.subs {
			if b.subs[i].id == id {
				b.subs = append(b.subs[:i], b.subs[i+1:]...)
				break
			}
		}
		b.recomputeMask()
	}
}

func (b *Bus) recomputeMask() {
	var m uint32
	for _, s := range b.subs {
		m |= s.mask
	}
	b.mask = m
}

// Subscribers returns the number of live subscriptions.
func (b *Bus) Subscribers() int {
	if b == nil {
		return 0
	}
	return len(b.subs)
}

// StampCycle records the emitter-side cycle clock. The pipeline stamps it at
// memory operations and predictor verifications so that components without
// their own clock (predictors, caches, kernel, injector) can timestamp the
// events they emit. Safe on a nil bus.
func (b *Bus) StampCycle(cycle int64) {
	if b != nil && cycle > b.now {
		b.now = cycle
	}
}

// Now returns the last stamped cycle (0 on a nil bus).
func (b *Bus) Now() int64 {
	if b == nil {
		return 0
	}
	return b.now
}

// Multi composes observers into one that fans events out in order, skipping
// nils. It returns nil when every argument is nil, so callers can assign the
// result directly to an optional Observer field.
func Multi(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return ObserverFunc(func(e Event) {
		for _, o := range live {
			o.HandleEvent(e)
		}
	})
}
