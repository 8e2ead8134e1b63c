package engine

import (
	"slices"

	"apuama/internal/sql"
	"apuama/internal/sqltypes"
)

// A prepared plan is a SELECT planned once on a node and opened again for
// each new vector of arguments to its placeholders ($1, $2, …) — the
// paper's SVP sub-queries, which differ only in the two bounds of their
// range predicate on the partitioning attribute. Planning reads an
// argument as the literal it stands for, so a fresh plan is exactly the
// plan of the statement with the literals written in. Re-binding the same
// operator tree to other arguments is only sound where the arguments
// reached nothing but bound slots: each placeholder the only candidate of
// one side of one index scan's key bounds, which every open resolves
// anew. Anywhere else — a filter, a projection, a compiled kernel, a
// columnar or shared scan's filter, an intersection with another literal
// bound, an equality, an empty range — its value is baked into the plan,
// and the plan is spilled: it re-opens only with the arguments it was
// planned with.

// planInputs is what a plan is a function of besides the statement, the
// relations and their statistics: the arguments of its placeholders and
// whether the query forbids sequential scans. The binder carries it, so a
// query's own sub-plans plan under the same inputs; planning records in
// it where the arguments went.
type planInputs struct {
	args       []sqltypes.Value
	forceIndex bool

	// slots[i] is the literal $i+1 became as a bound slot; spilled is set
	// when an argument reached anything else.
	slots   []*litExpr
	spilled bool
	// pairs are the index ranges bounded by two slots. A range's width
	// (hi - lo, all rangeSelectivity reads of it) decided the access path
	// where sequential scans were allowed or another index was a
	// candidate: then a re-bind must keep it.
	pairs []slotPair

	// subplans are the plan's sub-queries: an uncorrelated one
	// materializes once per execution, so every open clears its cache.
	subplans []*subplan
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
// decided nothing. Anything else spills.
func (in *planInputs) bindSlots(ap *accessPath, sb *scanBounds, widthDecides bool) {
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

// sideSlot records one side's placeholder as a slot and returns its
// number (0 for none); ok is false when the placeholder shares its side or
// already has a slot.
func (in *planInputs) sideSlot(side []keyBound, bound []scanBound) (n int, ok bool) {
	for i, kb := range side {
		if kb.slot == 0 {
			continue
		}
		if len(side) > 1 || in.slots[kb.slot-1] != nil {
			return 0, false
		}
		in.slots[kb.slot-1] = bound[i].e.(*litExpr)
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
	p := &Prepared{nd: nd, in: planInputs{args: slices.Clone(args), forceIndex: opts.ForceIndexScan, slots: make([]*litExpr, len(args))}}
	root, cols, err := nd.planTop(sel, &p.in)
	if err != nil {
		return nil, err
	}
	p.root, p.cols, p.out = root, cols, rootHome(root)
	return p, nil
}

// Rebind writes args into the plan's bound slots and reports true when
// the result is, by construction, the plan Prepare would build for args
// under opts: nothing spilled, every argument a slot of the same kind that
// orders transitively (so the bounds still imply the conjuncts left out of
// the scan filter), no range turned empty, every width that chose an
// access path kept and the same ForceIndexScan. Otherwise it changes
// nothing and reports false.
func (p *Prepared) Rebind(args []sqltypes.Value, opts QueryOpts) bool {
	in := &p.in
	if in.spilled || len(args) != len(in.args) || opts.ForceIndexScan != in.forceIndex {
		return false
	}
	for i, v := range args {
		if in.slots[i] == nil || v.K != in.args[i].K || !orderedLiteral(v) {
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
	for i, slot := range in.slots {
		slot.v = args[i]
	}
	copy(in.args, args)
	return true
}

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
