package core

// Unit-dependency tracking, the substrate of incremental re-solving
// (Options.Incremental). Every compilation unit of an application — each
// source file and each layout — gets one bit of a paged bitset. Every
// derived fact records the union of (a) the units its deriving rule
// application reads directly (the file containing the statement or
// operation, the layout being inflated, the file of a callee whose body the
// rule inspects) and (b) the unit sets of its premise facts. Because rules
// fire only after their premises hold, premises are always tracked before
// conclusions, and the union is a transitive over-approximation of every
// input the fact's derivation touched.
//
// On an edit, AnalyzeIncremental computes the dirty-unit mask and retracts,
// in place, the facts whose bit set intersects it (plus facts on nodes the
// rebuild replaces); the surviving fact base stays in the adopted graph and
// the solver runs the Section 4.2 rules to a new fixed point. Soundness of
// retention: a fact whose recorded derivation touched no dirty unit replays
// verbatim against the edited program, so it belongs to the new least model;
// keeping a subset of the least model on top of the re-derived base cannot
// change the monotone fixpoint. Over-retraction is always safe — a retracted
// fact that still holds is simply re-derived.

import (
	"sort"

	"gator/internal/ir"
)

// unitBits is a set of compilation units, one bit per unit. The first 64
// bits live inline so applications with at most 64 units (the common case)
// never allocate; larger applications spill into overflow words. Values are
// immutable after creation — or returns a fresh value and may share overflow
// storage with an operand — so masks can be stored and copied without
// cloning.
type unitBits struct {
	lo uint64
	hi []uint64 // bits 64 and up; nil when the app fits in 64 units
}

// isZero reports the empty set.
func (b unitBits) isZero() bool { return b.lo == 0 && len(b.hi) == 0 }

// or returns the union of b and o.
func (b unitBits) or(o unitBits) unitBits {
	if len(o.hi) == 0 {
		if len(b.hi) == 0 {
			return unitBits{lo: b.lo | o.lo}
		}
		return unitBits{lo: b.lo | o.lo, hi: b.hi}
	}
	if len(b.hi) == 0 {
		return unitBits{lo: b.lo | o.lo, hi: o.hi}
	}
	long, short := b.hi, o.hi
	if len(short) > len(long) {
		long, short = short, long
	}
	// Containment fast path: when every word of the shorter operand is
	// already present in the longer one, share the longer storage. Masks
	// mostly grow by absorbing already-seen premise sets, so this saves the
	// copy on the hot record path.
	contained := true
	for i, w := range short {
		if long[i]|w != long[i] {
			contained = false
			break
		}
	}
	if contained {
		return unitBits{lo: b.lo | o.lo, hi: long}
	}
	merged := make([]uint64, len(long))
	copy(merged, long)
	for i, w := range short {
		merged[i] |= w
	}
	return unitBits{lo: b.lo | o.lo, hi: merged}
}

// intersects reports whether b and o share a unit.
func (b unitBits) intersects(o unitBits) bool {
	if b.lo&o.lo != 0 {
		return true
	}
	n := len(b.hi)
	if len(o.hi) < n {
		n = len(o.hi)
	}
	for i := 0; i < n; i++ {
		if b.hi[i]&o.hi[i] != 0 {
			return true
		}
	}
	return false
}

// unitTable assigns each compilation unit of a program a bit position:
// source files in sorted order, then layouts (as "layout:<name>") in sorted
// order. The assignment is derived purely from the unit names, so two
// programs over the same file and layout sets — e.g. a program and its
// patched successor — agree on every bit. There is no cap on the unit
// count: positions past 63 land in the paged overflow words.
type unitTable struct {
	index map[string]int
	names []string
	masks []unitBits // precomputed singleton per position; shared, immutable
}

// newUnitTable builds the unit table for p.
func newUnitTable(p *ir.Program) *unitTable {
	seen := map[string]bool{}
	var names []string
	for _, f := range p.SourceFiles() {
		if !seen[f] {
			seen[f] = true
			names = append(names, f)
		}
	}
	var layouts []string
	for name := range p.Layouts {
		layouts = append(layouts, "layout:"+name)
	}
	sort.Strings(names)
	sort.Strings(layouts)
	names = append(names, layouts...)
	t := &unitTable{
		index: make(map[string]int, len(names)),
		names: names,
		masks: make([]unitBits, len(names)),
	}
	for i, n := range names {
		t.index[n] = i
		if i < 64 {
			t.masks[i] = unitBits{lo: 1 << uint(i)}
		} else {
			hi := make([]uint64, (i-64)/64+1)
			hi[(i-64)/64] = 1 << uint((i-64)%64)
			t.masks[i] = unitBits{hi: hi}
		}
	}
	return t
}

// bit returns the mask of the named unit, or the empty set for unknown
// names (platform code, synthesized positions). The returned mask shares
// the table's precomputed storage, so lookups never allocate.
func (t *unitTable) bit(name string) unitBits {
	if t == nil || name == "" {
		return unitBits{}
	}
	i, ok := t.index[name]
	if !ok {
		return unitBits{}
	}
	return t.masks[i]
}

// equal reports whether two tables assign identical bits.
func (t *unitTable) equal(o *unitTable) bool {
	if t == nil || o == nil || len(t.names) != len(o.names) {
		return false
	}
	for i, n := range t.names {
		if o.names[i] != n {
			return false
		}
	}
	return true
}

// unitOf returns the unit mask of the source file declaring m's class
// (0 for platform methods).
func (a *analysis) unitOf(m *ir.Method) unitBits {
	if a.units == nil || m == nil || m.Class.IsPlatform {
		return unitBits{}
	}
	return a.units.bit(m.Class.Pos.File)
}

// layoutUnit returns the unit mask of a layout.
func (a *analysis) layoutUnit(name string) unitBits {
	if a.units == nil {
		return unitBits{}
	}
	return a.units.bit("layout:" + name)
}

// depTracker records, per fact, the transitive unit-dependency mask of its
// first derivation, in derivation order. masks mirrors order index-for-index
// so the retraction scan reads straight arrays; bits is the dedup gate and
// the premise-mask lookup.
type depTracker struct {
	bits  map[Fact]unitBits
	order []Fact
	masks []unitBits
}

func newDepTracker() *depTracker {
	return &depTracker{bits: map[Fact]unitBits{}}
}

// record tracks a newly derived fact: the rule-site units ORed with every
// premise's tracked mask. First derivation wins, keeping the tracker
// consistent with the provenance DAG's minimality contract.
func (d *depTracker) record(f Fact, units unitBits, premises []Fact) {
	if _, ok := d.bits[f]; ok {
		return
	}
	for _, p := range premises {
		units = units.or(d.bits[p])
	}
	d.bits[f] = units
	d.order = append(d.order, f)
	d.masks = append(d.masks, units)
}

// renumber rewrites every tracked fact's operands to their new ids after a
// graph compaction (graph.Compact's remap), keeping derivation order and
// masks. Retraction already removed every fact on a retired node; one that
// named one anyway would be dropped rather than renamed.
func (d *depTracker) renumber(remap []int32) {
	bits := make(map[Fact]unitBits, len(d.order))
	kept, keptMasks := d.order[:0], d.masks[:0]
	for i, f := range d.order {
		na, nb := remap[f.A], remap[f.B]
		if na < 0 || nb < 0 {
			continue
		}
		f.A, f.B = int(na), int(nb)
		kept = append(kept, f)
		keptMasks = append(keptMasks, d.masks[i])
		bits[f] = d.masks[i]
	}
	clear(d.order[len(kept):])
	clear(d.masks[len(keptMasks):])
	d.order, d.masks, d.bits = kept, keptMasks, bits
}

// record registers one derived fact with both trackers: the unit-dependency
// tracker (Options.Incremental) and the provenance DAG (Options.Provenance).
// units are the rule-site units only; premise units are inherited through
// the tracker. Call sites guard with a.tracking so the disabled path stays
// allocation-free.
func (a *analysis) record(f Fact, rule string, units unitBits, premises ...Fact) {
	if a.dep != nil {
		a.dep.record(f, units, premises)
	}
	if a.rec != nil {
		a.rec.record(f, rule, premises...)
	}
}
