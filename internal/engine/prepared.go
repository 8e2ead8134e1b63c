package engine

import (
	"slices"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
	"apuama/internal/storage"
)

// A prepared plan is a SELECT planned once on a node and opened again for
// each new vector of arguments to its placeholders ($1, $2, …) — the
// paper's SVP sub-queries, which differ only in the two bounds of their
// range predicate on the partitioning attribute and in the literals of
// their template (the controller lifts those into arguments too, see
// sql.Parameterize). Planning reads an argument as the literal it stands
// for, so a fresh plan is exactly the plan of the statement with the
// literals written in. Re-binding the same operator tree to other
// arguments is only sound where only an argument's kind shaped the plan:
// each placeholder either the only candidate of one side of one index
// scan's key bounds, which every open resolves anew, or a literal of a
// scan or join filter, which evaluation and the filter kernels read when
// they run. Anywhere else — a projection, a folded expression, a
// columnar or shared scan's filter and zone maps, an intersection with
// another literal bound, an equality, an empty range, an access path it
// weighed — its value is baked into the plan, and the plan is spilled: it
// re-opens only with the arguments it was planned with.
//
// A plan is also a function of the catalog, the node's enable_seqscan
// setting and its relations' statistics, which move with every write:
// planInputs records the version and the write epochs it was planned
// against, so a plan kept across queries can tell it is still the plan
// Prepare would build (Prepared.Fresh).

// planInputs is what a plan is a function of besides the statement, the
// relations and their statistics: the arguments of its placeholders and
// whether the query forbids sequential scans. The binder carries it, so a
// query's own sub-plans plan under the same inputs; planning records in
// it where the arguments went and what it read.
type planInputs struct {
	args []sqltypes.Value
	// slots[i] is where $i+1 went; spilled is set when an argument
	// reached anything but a slot.
	slots []argSlot
	// pairs are the index ranges bounded by two slots. A range's width
	// (hi - lo, all rangeSelectivity reads of it) decided the access path
	// where sequential scans were allowed or another index was a
	// candidate: then a re-bind must keep it.
	pairs []slotPair

	// subplans are the plan's sub-queries: an uncorrelated one
	// materializes once per execution, so every open clears its cache.
	subplans []*subplan

	// version and seqscan are the catalog version and the node's
	// enable_seqscan setting the plan was planned under; reads are the
	// relations it read, each with its write epoch before planning read
	// its statistics.
	version  int64
	reads    []relEpoch
	readsBuf [2]relEpoch

	forceIndex, spilled, seqscan bool
}

// argSlot is where one argument went: the literal it became as the bound
// slot of an index range — both bounds of a point range, `k = $n` — or
// the literals it became in filters.
type argSlot struct {
	bound, point *litExpr
	uses         []*litExpr
}

// relEpoch is a relation a plan read and its write epoch then.
type relEpoch struct {
	rel   *storage.Relation
	epoch int64
}

// read records that planning reads rel, before it reads its statistics.
func (in *planInputs) read(rel *storage.Relation) {
	for _, r := range in.reads {
		if r.rel == rel {
			return
		}
	}
	if in.reads == nil {
		in.reads = in.readsBuf[:0]
	}
	in.reads = append(in.reads, relEpoch{rel: rel, epoch: rel.WriteEpoch()})
}

type slotPair struct {
	lo, hi         int // placeholder numbers
	loIncl, hiIncl bool
	width          bool
}

// seqscan reports whether the plan may use sequential scans: the node's
// enable_seqscan setting, unless the query itself turned them off.
func (b *binder) seqscan() bool {
	return (b.in == nil || !b.in.forceIndex) && b.node.EnableSeqscan()
}

// bindSlots records the placeholders of an index range's bounds as slots:
// each must be the only candidate of its side, and a placeholder on one
// side needs one on the other unless that side is open and the width
// decided nothing. An equality `k = $n` is both bounds of a point range,
// one slot whose value no estimate reads (rangeSelectivity prices an
// equality by the index alone). Anything else spills.
func (in *planInputs) bindSlots(ap *accessPath, sb *scanBounds, widthDecides bool) {
	if n := pointSlot(ap); n > 0 {
		if s := &in.slots[n-1]; s.bound == nil {
			s.bound, s.point = sb.lo[0].e.(*litExpr), sb.hi[0].e.(*litExpr)
		} else {
			in.spilled = true
		}
		return
	}
	lo, loOK := in.sideSlot(ap.lo, sb.lo)
	hi, hiOK := in.sideSlot(ap.hi, sb.hi)
	switch {
	case !loOK || !hiOK:
		in.spilled = true
	case lo > 0 && hi > 0:
		in.pairs = append(in.pairs, slotPair{lo: lo, hi: hi, loIncl: ap.lo[0].incl, hiIncl: ap.hi[0].incl, width: widthDecides})
	case lo > 0 && (widthDecides || len(sb.hi) > 0), hi > 0 && (widthDecides || len(sb.lo) > 0):
		in.spilled = true
	}
}

// pointSlot returns n when ap's only bounds are the two sides of one
// equality with $n, and 0 otherwise.
func pointSlot(ap *accessPath) int {
	if len(ap.lo) != 1 || len(ap.hi) != 1 {
		return 0
	}
	lo, hi := ap.lo[0], ap.hi[0]
	if lo.slot == 0 || lo.slot != hi.slot || !lo.eq || !hi.eq {
		return 0
	}
	return lo.slot
}

// sideSlot records one side's placeholder as a slot and returns its
// number (0 for none); ok is false when the placeholder shares its side or
// already has a slot.
func (in *planInputs) sideSlot(side []keyBound, bound []scanBound) (n int, ok bool) {
	for i, kb := range side {
		if kb.slot == 0 {
			continue
		}
		if len(side) > 1 || in.slots[kb.slot-1].bound != nil {
			return 0, false
		}
		in.slots[kb.slot-1].bound = bound[i].e.(*litExpr)
		return kb.slot, true
	}
	return 0, true
}

// Prepared is one SELECT planned on a node under fixed QueryOpts planner
// inputs, ready to open at any snapshot and to re-bind to new arguments
// (see the top of this file). It belongs to one goroutine: open it again
// only after closing the previous cursor.
type Prepared struct {
	nd   *Node
	root op
	cols []string
	in   planInputs
	// out is where the operator that builds the result rows cuts them
	// (rootHome); OpenAt points it at the caller's arena.
	out **RowArena
}

// Prepare plans sel with args bound to its placeholders, under the
// planner input of opts: ForceIndexScan.
func (nd *Node) Prepare(sel *sql.SelectStmt, args []sqltypes.Value, opts QueryOpts) (*Prepared, error) {
	p := &Prepared{nd: nd, in: planInputs{
		args: slices.Clone(args), slots: make([]argSlot, len(args)),
		version: nd.db.CatalogVersion(), forceIndex: opts.ForceIndexScan, seqscan: nd.EnableSeqscan(),
	}}
	root, cols, err := nd.planTop(sel, &p.in)
	if err != nil {
		return nil, err
	}
	p.root, p.cols, p.out = root, cols, rootHome(root)
	return p, nil
}

// Rebind writes args into the plan's slots and reports true when the
// result is, by construction, the plan Prepare would build for args under
// opts: nothing spilled, every argument of the kind it was planned with
// and either a filter literal or a bound slot that orders transitively
// (so the bounds still imply the conjuncts left out of the scan filter),
// no range turned empty, every width that chose an access path kept and
// the same ForceIndexScan. A point slot's range [v, v] is never empty for
// such a literal. Otherwise it changes nothing and reports false.
func (p *Prepared) Rebind(args []sqltypes.Value, opts QueryOpts) bool {
	in := &p.in
	if in.spilled || len(args) != len(in.args) || opts.ForceIndexScan != in.forceIndex {
		return false
	}
	for i, v := range args {
		bound, filtered := in.slots[i].bound != nil, len(in.slots[i].uses) > 0
		if bound == filtered || v.K != in.args[i].K || bound && !orderedLiteral(v) {
			return false
		}
	}
	for _, pr := range in.pairs {
		lo, hi := args[pr.lo-1], args[pr.hi-1]
		if emptyInterval(lo, pr.loIncl, hi, pr.hiIncl) {
			return false
		}
		if pr.width && hi.AsFloat()-lo.AsFloat() != in.args[pr.hi-1].AsFloat()-in.args[pr.lo-1].AsFloat() {
			return false
		}
	}
	for i, v := range args {
		if b := in.slots[i].bound; b != nil {
			b.v = v
		}
		if pt := in.slots[i].point; pt != nil {
			pt.v = v
		}
		for _, u := range in.slots[i].uses {
			u.v = v
		}
	}
	copy(in.args, args)
	return true
}

// Fresh reports whether the plan may serve a later query as it stands:
// nothing spilled, and the catalog version, the node's enable_seqscan
// setting and the write epoch of every relation it read are still those
// it was planned against. A plan kept across queries is then, by
// construction, the plan Prepare would build now for any arguments Rebind
// accepts.
func (p *Prepared) Fresh() bool {
	in := &p.in
	if in.spilled || p.nd.db.CatalogVersion() != in.version || p.nd.EnableSeqscan() != in.seqscan {
		return false
	}
	for _, r := range in.reads {
		if r.rel.WriteEpoch() != r.epoch {
			return false
		}
	}
	return true
}

// Spilled reports that an argument's value, not only its kind, shaped the
// plan: it re-binds to no other arguments and is never fresh.
func (p *Prepared) Spilled() bool { return p.in.spilled }

// OpenAt opens the plan at an explicit snapshot (opts supplies the
// cursor's context and batch size) and returns a cursor positioned before
// the first batch. The caller must Close it before the plan opens again.
// The rows the cursor returns are cut from rows, and live until the caller
// releases it; with a nil arena they are heap rows.
func (p *Prepared) OpenAt(snapshot int64, opts QueryOpts, rows *RowArena) (*Cursor, error) {
	for _, s := range p.in.subplans {
		s.cached = false
	}
	if p.out != nil {
		*p.out = nil
		if rows != nil {
			*p.out = rows
		}
	}
	ex := &execCtx{node: p.nd, snapshot: snapshot, meter: p.nd.meter, ctx: opts.Ctx, batchCap: opts.BatchSize}
	if err := p.root.open(ex); err != nil {
		p.root.close()
		return nil, err
	}
	return &Cursor{nd: p.nd, ex: ex, root: p.root, cols: p.cols}, nil
}
