package speccheck_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"zenspec/internal/asm"
	"zenspec/internal/isa"
	"zenspec/internal/speccheck"
)

// listing2STL builds the paper's Listing 2/3 STL shape: a slow store, a
// bypassing load, a dependent load and a transmitter.
func listing2STL() []byte {
	b := asm.NewBuilder()
	b.Movi(isa.R15, 0x4000)
	b.Load(isa.RCX, isa.R15, 0)
	b.Shli(isa.RCX, isa.RCX, 3)
	b.Add(isa.RCX, isa.RCX, isa.R13)
	b.Store(isa.RCX, 0, isa.RAX) // store (address resolves late)
	b.Load(isa.RDX, isa.R14, 0)  // ld1: may bypass the store
	b.Add(isa.RBX, isa.RDX, isa.R11)
	b.Load(isa.R8, isa.RBX, 0) // ld2: address from ld1
	b.Andi(isa.R8, isa.R8, 0xff)
	b.Shli(isa.R9, isa.R8, 3)
	b.Add(isa.R9, isa.R9, isa.R13)
	b.Load(isa.R10, isa.R9, 0) // transmit: address from ld2
	b.Halt()
	return b.MustAssemble(0)
}

func TestAnalyzeFindsListing2STL(t *testing.T) {
	findings := speccheck.Analyze(listing2STL(), speccheck.Options{})
	var stl []speccheck.Finding
	for _, f := range findings {
		if f.Kind == speccheck.KindSTL {
			stl = append(stl, f)
		}
	}
	if len(stl) != 1 {
		t.Fatalf("stl findings = %v, want exactly 1", stl)
	}
	f := stl[0]
	wantChain := []int{4 * isa.InstBytes, 5 * isa.InstBytes, 7 * isa.InstBytes, 11 * isa.InstBytes}
	if !reflect.DeepEqual(f.Chain(), wantChain) {
		t.Errorf("witness chain = %#v, want %#v", f.Chain(), wantChain)
	}
	if f.Depth != 2 {
		t.Errorf("depth = %d, want 2", f.Depth)
	}
}

// TestAnalyzeListing3ChainOrdered: with default options the Listing 3 shape
// is reported with its witness in program order and a readable rendering.
func TestAnalyzeListing3ChainOrdered(t *testing.T) {
	findings := speccheck.Analyze(listing2STL(), speccheck.Options{})
	if len(findings) == 0 {
		t.Fatal("the Listing 3 shape was not detected")
	}
	for _, f := range findings {
		c := f.Chain()
		for i := 1; i < len(c); i++ {
			if c[i-1] >= c[i] {
				t.Errorf("witness %v out of program order: %+v", c, f)
			}
		}
		if f.String() == "" {
			t.Error("empty finding report")
		}
	}
}

// TestAnalyzeFindsAttackVictim: the analyzer must flag the exact victim the
// STL attack in this repository uses (rebuilt here; it lives in
// internal/attack): a store whose address resolves through a multiply chain.
func TestAnalyzeFindsAttackVictim(t *testing.T) {
	b := asm.NewBuilder()
	b.Movi(isa.R15, 0x4000000)
	b.Load(isa.RCX, isa.R15, 0)
	for i := 0; i < 10; i++ {
		b.Imul(isa.RCX, isa.RCX, isa.R12)
	}
	b.Shli(isa.RCX, isa.RCX, 12)
	b.Movi(isa.R13, 0x3000000)
	b.Add(isa.RCX, isa.RCX, isa.R13)
	store := b.Offset()
	b.Store(isa.RCX, 0, isa.RDI)
	b.Load(isa.RDX, isa.R13, 0)
	b.Movi(isa.R14, 0x2000000)
	b.Add(isa.RBX, isa.RDX, isa.R14)
	b.Load(isa.R8, isa.RBX, 0)
	b.Andi(isa.R8, isa.R8, 0xff)
	b.Shli(isa.R9, isa.R8, 12)
	b.Add(isa.R9, isa.R9, isa.R13)
	tx := b.Offset()
	b.Load(isa.R10, isa.R9, 0)
	b.Halt()
	findings := speccheck.Analyze(b.MustAssemble(0), speccheck.Options{STL: true})
	for _, f := range findings {
		if f.SourceOff == store && f.TransmitOff == tx {
			return
		}
	}
	t.Errorf("findings = %v, want store@+%#x -> transmit@+%#x", findings, store, tx)
}

// TestAnalyzeIgnoresCleanStores: stores and loads whose addresses never
// depend on a bypassing load are not findings, without any branch around.
func TestAnalyzeIgnoresCleanStores(t *testing.T) {
	b := asm.NewBuilder()
	b.Movi(isa.RAX, 1)
	b.Store(isa.R15, 0, isa.RAX)
	b.Load(isa.RBX, isa.R15, 8) // independent load
	b.Add(isa.RBX, isa.RBX, isa.RAX)
	b.Store(isa.R15, 16, isa.RBX) // store with a clean address (base r15)
	b.Halt()
	if got := speccheck.Analyze(b.MustAssemble(0), speccheck.Options{}); len(got) != 0 {
		t.Errorf("innocuous code flagged: %v", got)
	}
}

// branchySTL interposes a conditional branch between ld1 and ld2; the
// window must continue through both of its directions.
func branchySTL() []byte {
	b := asm.NewBuilder()
	b.Store(isa.RCX, 0, isa.RAX) // +0  store
	b.Load(isa.RDX, isa.R14, 0)  // +8  ld1
	b.Jnz(isa.RAX, "cont")       // +16 branch inside the window
	b.Nop()                      // +24
	b.Label("cont")
	b.Add(isa.RBX, isa.RDX, isa.R11) // +32
	b.Load(isa.R8, isa.RBX, 0)       // +40 ld2
	b.Shli(isa.R9, isa.R8, 3)        // +48
	b.Load(isa.R10, isa.R9, 0)       // +56 transmit
	b.Halt()
	return b.MustAssemble(0)
}

func TestAnalyzeSTLAcrossBranch(t *testing.T) {
	findings := speccheck.Analyze(branchySTL(), speccheck.Options{STL: true})
	if len(findings) == 0 {
		t.Fatal("CFG analyzer missed the STL gadget behind a branch")
	}
	f := findings[0]
	want := speccheck.Finding{
		Kind:        speccheck.KindSTL,
		SourceOff:   0,
		LoadOffs:    []int{8, 40},
		TransmitOff: 56,
		Depth:       2,
	}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("finding = %+v, want %+v", f, want)
	}
}

// ctlGadget is the Spectre-V1/CTL shape: a bounds-check branch guarding a
// secret load whose value indexes the transmitter.
func ctlGadget() []byte {
	b := asm.NewBuilder()
	b.Jnz(isa.RDI, "out")       // +0  guard: mispredicted not-taken
	b.Load(isa.RDX, isa.RSI, 0) // +8  ld1: the secret
	b.Andi(isa.RDX, isa.RDX, 0x3f)
	b.Shli(isa.RDX, isa.RDX, 6)
	b.Add(isa.RDX, isa.RDX, isa.RBP)
	b.Load(isa.R8, isa.RDX, 0) // +40 transmit
	b.Label("out")
	b.Halt()
	return b.MustAssemble(0)
}

func TestAnalyzeFindsCTL(t *testing.T) {
	findings := speccheck.Analyze(ctlGadget(), speccheck.Options{CTL: true})
	if len(findings) != 1 {
		t.Fatalf("findings = %v, want exactly 1", findings)
	}
	f := findings[0]
	want := speccheck.Finding{
		Kind:        speccheck.KindCTL,
		SourceOff:   0,
		LoadOffs:    []int{8},
		TransmitOff: 40,
		Depth:       1,
	}
	if !reflect.DeepEqual(f, want) {
		t.Errorf("finding = %+v, want %+v", f, want)
	}
	if !reflect.DeepEqual(f.Chain(), []int{0, 8, 40}) {
		t.Errorf("chain = %v", f.Chain())
	}
}

// TestAnalyzeTaintThroughMemory: a transient value spilled to memory and
// reloaded keeps its taint (the finite abstract store), even across a
// branch.
func TestAnalyzeTaintThroughMemory(t *testing.T) {
	b := asm.NewBuilder()
	b.Store(isa.RCX, 0, isa.RAX) // +0  source store
	b.Load(isa.RDX, isa.R14, 0)  // +8  ld1
	b.Store(isa.R15, 8, isa.RDX) // +16 spill the tainted value
	b.Jnz(isa.RAX, "next")       // +24
	b.Label("next")
	b.Load(isa.RBX, isa.R15, 8) // +32 reload: taint survives
	b.Load(isa.R8, isa.RBX, 0)  // +40 ld2
	b.Load(isa.R10, isa.R8, 0)  // +48 transmit
	b.Halt()
	findings := speccheck.Analyze(b.MustAssemble(0), speccheck.Options{STL: true})
	if len(findings) == 0 {
		t.Fatal("taint did not survive the spill/reload round trip")
	}
	f := findings[0]
	if f.SourceOff != 0 || f.TransmitOff != 48 {
		t.Errorf("finding = %+v", f)
	}
	if !reflect.DeepEqual(f.LoadOffs, []int{8, 40}) {
		t.Errorf("load chain = %v, want [8 40]", f.LoadOffs)
	}
}

func TestAnalyzeWindowBound(t *testing.T) {
	b := asm.NewBuilder()
	b.Store(isa.RCX, 0, isa.RAX)
	b.Load(isa.RDX, isa.R14, 0)
	for i := 0; i < 60; i++ {
		b.Addi(isa.RDX, isa.RDX, 0)
	}
	b.Load(isa.R8, isa.RDX, 0)
	b.Load(isa.R10, isa.R8, 0)
	b.Halt()
	code := b.MustAssemble(0)
	if got := speccheck.Analyze(code, speccheck.Options{STL: true, Window: 16}); len(got) != 0 {
		t.Errorf("finding beyond the window: %v", got)
	}
	if got := speccheck.Analyze(code, speccheck.Options{STL: true, Window: 80}); len(got) == 0 {
		t.Error("finding inside a large window missed")
	}
}

func TestAnalyzeFenceEndsWindow(t *testing.T) {
	b := asm.NewBuilder()
	b.Jnz(isa.RDI, "out")
	b.Load(isa.RDX, isa.RSI, 0)
	b.Lfence() // speculation barrier: the classic V1 mitigation
	b.Shli(isa.RDX, isa.RDX, 6)
	b.Load(isa.R8, isa.RDX, 0)
	b.Label("out")
	b.Halt()
	if got := speccheck.Analyze(b.MustAssemble(0), speccheck.Options{}); len(got) != 0 {
		t.Errorf("fenced gadget still reported: %v", got)
	}
}

// TestAnalyzeSTLFenceNotBranch: between ld1 and ld2 of an STL chain, an
// lfence ends the window, while a conditional branch does not (the window
// continues down its fall-through direction).
func TestAnalyzeSTLFenceNotBranch(t *testing.T) {
	build := func(mid func(b *asm.Builder)) []byte {
		b := asm.NewBuilder()
		b.Store(isa.RCX, 0, isa.RAX)
		b.Load(isa.RDX, isa.R14, 0)
		mid(b)
		b.Add(isa.RBX, isa.RDX, isa.R11)
		b.Load(isa.R8, isa.RBX, 0)
		b.Shli(isa.R9, isa.R8, 3)
		b.Load(isa.R10, isa.R9, 0)
		b.Label("out")
		b.Halt()
		return b.MustAssemble(0)
	}
	if got := speccheck.Analyze(build(func(b *asm.Builder) {}), speccheck.Options{}); len(got) == 0 {
		t.Fatal("control pattern not reported")
	}
	withFence := build(func(b *asm.Builder) { b.Lfence() })
	if got := speccheck.Analyze(withFence, speccheck.Options{}); len(got) != 0 {
		t.Errorf("a fence inside the window should end it: %v", got)
	}
	withBranch := build(func(b *asm.Builder) { b.Jnz(isa.RAX, "out") })
	if got := speccheck.Analyze(withBranch, speccheck.Options{STL: true}); len(got) == 0 {
		t.Error("a branch inside the window hid the gadget on its fall-through path")
	}
}

// TestAnalyzeWindowEdge pins the exact window length at which the padded
// chain of TestAnalyzeWindowBound first fits.
func TestAnalyzeWindowEdge(t *testing.T) {
	b := asm.NewBuilder()
	b.Store(isa.RCX, 0, isa.RAX)
	b.Load(isa.RDX, isa.R14, 0)
	for i := 0; i < 60; i++ {
		b.Addi(isa.RDX, isa.RDX, 0) // keep the taint alive, pad the distance
	}
	b.Load(isa.R8, isa.RDX, 0)
	b.Load(isa.R10, isa.R8, 0)
	b.Halt()
	code := b.MustAssemble(0)
	// The transmitter is the 64th instruction counting the store as the
	// first, so a 64-instruction window is the smallest that holds it.
	const edge = 64
	if got := speccheck.Analyze(code, speccheck.Options{STL: true, Window: edge - 1}); len(got) != 0 {
		t.Errorf("window %d: finding beyond the window: %v", edge-1, got)
	}
	if got := speccheck.Analyze(code, speccheck.Options{STL: true, Window: edge}); len(got) == 0 {
		t.Errorf("window %d: finding inside the window missed", edge)
	}
}

// TestAnalyzeStoreTransmitter: a store whose address carries the chain's
// value transmits just like a load.
func TestAnalyzeStoreTransmitter(t *testing.T) {
	b := asm.NewBuilder()
	b.Store(isa.RCX, 0, isa.RAX) // +0  source
	b.Load(isa.RDX, isa.R14, 0)  // +8  ld1
	b.Load(isa.R8, isa.RDX, 0)   // +16 ld2
	b.Store(isa.R8, 0, isa.RAX)  // +24 transmit
	b.Halt()
	got := speccheck.Analyze(b.MustAssemble(0), speccheck.Options{STL: true})
	if len(got) != 1 || got[0].TransmitOff != 24 {
		t.Errorf("findings = %v, want the store transmitter at +24", got)
	}
}

func TestAnalyzeInnocuousCode(t *testing.T) {
	b := asm.NewBuilder()
	b.Movi(isa.RAX, 1)
	b.Label("loop")
	b.Store(isa.R15, 0, isa.RAX)
	b.Load(isa.RBX, isa.R15, 8)
	b.Subi(isa.RCX, isa.RCX, 1)
	b.Jnz(isa.RCX, "loop")
	b.Halt()
	if got := speccheck.Analyze(b.MustAssemble(0), speccheck.Options{}); len(got) != 0 {
		t.Errorf("innocuous loop flagged: %v", got)
	}
}

// TestAnalyzeSlideStride: with Stride 1 the analyzer finds a gadget placed
// at a non-slot byte offset, the way the paper's code-sliding search places
// code anywhere in a page.
func TestAnalyzeSlideStride(t *testing.T) {
	gadgetCode := listing2STL()
	const shift = 3
	code := make([]byte, shift+len(gadgetCode))
	code[0], code[1], code[2] = 0x90, 0x90, 0x90 // junk prefix
	copy(code[shift:], gadgetCode)

	aligned := speccheck.Analyze(code, speccheck.Options{STL: true})
	for _, f := range aligned {
		if f.SourceOff == shift+4*isa.InstBytes {
			t.Fatalf("aligned scan should miss the shifted gadget, found %v", f)
		}
	}
	slid := speccheck.Analyze(code, speccheck.Options{STL: true, Stride: 1})
	found := false
	for _, f := range slid {
		if f.SourceOff == shift+4*isa.InstBytes && f.TransmitOff == shift+11*isa.InstBytes {
			found = true
		}
	}
	if !found {
		t.Errorf("stride-1 scan missed the gadget at byte offset %d: %v", shift, slid)
	}
}

func TestAnalyzeLoopTerminates(t *testing.T) {
	// A tight loop with a store inside: the state dedup and window bound
	// must terminate the exploration.
	b := asm.NewBuilder()
	b.Label("loop")
	b.Store(isa.RCX, 0, isa.RAX)
	b.Load(isa.RDX, isa.R14, 0)
	b.Load(isa.R8, isa.RDX, 0)
	b.Load(isa.R10, isa.R8, 0)
	b.Jnz(isa.RCX, "loop")
	b.Halt()
	findings := speccheck.Analyze(b.MustAssemble(0), speccheck.Options{})
	if len(findings) == 0 {
		t.Error("looped gadget not found")
	}
}

func TestFindingJSONRoundTrip(t *testing.T) {
	f := speccheck.Finding{Kind: speccheck.KindCTL, SourceOff: 0, LoadOffs: []int{8}, TransmitOff: 40, Depth: 1}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	var got speccheck.Finding
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Errorf("round trip %+v -> %s -> %+v", f, raw, got)
	}
}
