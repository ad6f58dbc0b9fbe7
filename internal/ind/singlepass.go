package ind

import (
	"fmt"
	"sort"
	"time"

	"spider/internal/store"
	"spider/internal/valfile"
)

// SinglePassOptions tunes the single-pass run.
type SinglePassOptions struct {
	// Counter receives every item read; nil disables external counting.
	Counter *valfile.ReadCounter
	// Store serves the attributes' value sets; it is required.
	Store store.Dataset
}

// SinglePass tests all candidates in parallel while reading every value
// file exactly once (Sec 3.2). It is a faithful port of the paper's
// subject–observer design: dependent objects take control, referenced
// objects deliver their next value only when every attached dependent has
// requested it, and a monitor activates deliveries through a FIFO queue.
//
// The implementation is deliberately event-driven rather than a k-way
// merge, so the paper's surprising result — strictly less I/O than brute
// force yet slower wall clock due to synchronisation overhead — emerges
// from the same cause. Stats.Events counts the monitor deliveries behind
// that overhead.
func SinglePass(cands []Candidate, opts SinglePassOptions) (*Result, error) {
	start := time.Now()
	src, err := newSource(opts.Store, opts.Counter)
	if err != nil {
		return nil, err
	}
	sp, err := newSinglePass(cands, src)
	if err != nil {
		return nil, err
	}
	defer sp.closeAll()
	if err := sp.run(); err != nil {
		return nil, err
	}
	res := &Result{Satisfied: sp.satisfied}
	res.Stats = sp.stats
	res.Stats.Candidates = len(cands)
	res.Stats.Satisfied = len(res.Satisfied)
	res.Stats.ItemsRead = totalRead(opts.Counter)
	res.Stats.BytesRead = totalBytes(opts.Counter)
	res.Stats.Duration = time.Since(start)
	sortINDs(res.Satisfied)
	return res, nil
}

// refObj represents a referenced file: it manages "a list of all dependent
// objects with which the IND candidate was not yet refuted" and delivers
// its next value only when each of them has issued a request.
type refObj struct {
	attr    *Attribute
	reader  Cursor
	current string
	// pending is a one-value lookahead so wantNextValue can answer
	// "is there a next value" without consuming it.
	pending    string
	hasPending bool

	attached  map[*depObj]struct{}
	requested map[*depObj]struct{}
	queued    bool
}

// depObj represents a dependent file with the paper's three lists:
// currentWaiting (referenced objects whose next value must be compared
// with the *current* dependent value), nextWaiting (requested but not yet
// delivered values to compare with the *next* dependent value) and next
// (already delivered values waiting for the next dependent value).
type depObj struct {
	attr    *Attribute
	reader  Cursor
	current string
	hasCur  bool
	pending string
	hasPend bool

	currentWaiting map[*refObj]struct{}
	nextWaiting    map[*refObj]struct{}
	next           map[*refObj]string
}

type singlePass struct {
	deps  map[int]*depObj
	refs  map[int]*refObj
	queue []*refObj // the monitor's FIFO queue

	satisfied []IND
	stats     Stats
	src       source
	open      int
	err       error
}

func newSinglePass(cands []Candidate, src source) (*singlePass, error) {
	sp := &singlePass{
		deps: make(map[int]*depObj),
		refs: make(map[int]*refObj),
		src:  src,
	}
	for _, c := range cands {
		d, err := sp.depFor(c.Dep)
		if err != nil {
			return nil, err
		}
		r, err := sp.refFor(c.Ref)
		if err != nil {
			return nil, err
		}
		r.attached[d] = struct{}{}
	}
	return sp, nil
}

func (sp *singlePass) depFor(a *Attribute) (*depObj, error) {
	if d, ok := sp.deps[a.ID]; ok {
		return d, nil
	}
	reader, err := sp.src.Open(a)
	if err != nil {
		return nil, err
	}
	sp.trackOpen()
	d := &depObj{
		attr:           a,
		reader:         reader,
		currentWaiting: make(map[*refObj]struct{}),
		nextWaiting:    make(map[*refObj]struct{}),
		next:           make(map[*refObj]string),
	}
	// Load current value plus one lookahead.
	d.current, d.hasCur = reader.Next()
	if d.hasCur {
		d.pending, d.hasPend = reader.Next()
	}
	if err := reader.Err(); err != nil {
		return nil, err
	}
	sp.deps[a.ID] = d
	return d, nil
}

func (sp *singlePass) refFor(a *Attribute) (*refObj, error) {
	if r, ok := sp.refs[a.ID]; ok {
		return r, nil
	}
	reader, err := sp.src.Open(a)
	if err != nil {
		return nil, err
	}
	sp.trackOpen()
	r := &refObj{
		attr:      a,
		reader:    reader,
		attached:  make(map[*depObj]struct{}),
		requested: make(map[*depObj]struct{}),
	}
	r.pending, r.hasPending = reader.Next()
	if err := reader.Err(); err != nil {
		return nil, err
	}
	sp.refs[a.ID] = r
	return r, nil
}

func (sp *singlePass) trackOpen() {
	sp.open++
	sp.stats.FilesOpened++
	if sp.open > sp.stats.MaxOpenFiles {
		sp.stats.MaxOpenFiles = sp.open
	}
}

func (sp *singlePass) closeAll() {
	for _, d := range sp.deps {
		if d.reader != nil {
			d.reader.Close()
			d.reader = nil
		}
	}
	for _, r := range sp.refs {
		if r.reader != nil {
			r.reader.Close()
			r.reader = nil
		}
	}
}

// run bootstraps the protocol and drains the monitor queue.
func (sp *singlePass) run() error {
	// Bootstrap: every dependent object requests the first value of every
	// referenced object it still has a candidate with.
	depList := make([]*depObj, 0, len(sp.deps))
	for _, d := range sp.deps {
		depList = append(depList, d)
	}
	sort.Slice(depList, func(i, j int) bool { return depList[i].attr.ID < depList[j].attr.ID })
	for _, d := range depList {
		refsOf := d.refsAttachedTo(sp)
		for _, r := range refsOf {
			if !d.hasCur {
				// Empty dependent set: trivially included everywhere.
				sp.detach(d, r, true)
				continue
			}
			if r.wantNextValue(d, sp) {
				d.currentWaiting[r] = struct{}{}
			} else {
				sp.detach(d, r, false) // empty referenced set, non-empty dep
			}
		}
	}
	// Monitor loop: activate deliveries first-in-first-out.
	for len(sp.queue) > 0 {
		r := sp.queue[0]
		sp.queue = sp.queue[1:]
		r.queued = false
		if err := sp.deliver(r); err != nil {
			return err
		}
		if sp.err != nil {
			return sp.err
		}
	}
	// Theorem 3.1 guarantees no deadlock: when the queue drains, every
	// candidate must be decided. Verify the invariant.
	for _, r := range sp.refs {
		if len(r.attached) != 0 {
			return fmt.Errorf("ind: single pass ended with undecided candidates on %s", r.attr.Ref)
		}
	}
	return nil
}

// refsAttachedTo lists the referenced objects d currently has candidates
// with, in deterministic order.
func (d *depObj) refsAttachedTo(sp *singlePass) []*refObj {
	var out []*refObj
	for _, r := range sp.refs {
		if _, ok := r.attached[d]; ok {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].attr.ID < out[j].attr.ID })
	return out
}

// wantNextValue implements the referenced object's request protocol: the
// dependent object asks for the next referenced value. It returns false
// when the referenced file is exhausted (Algorithm 2 then excludes the
// candidate). When every attached dependent has requested, the monitor
// enqueues the delivery.
func (r *refObj) wantNextValue(d *depObj, sp *singlePass) bool {
	if !r.hasPending {
		return false
	}
	r.requested[d] = struct{}{}
	r.maybeEnqueue(sp)
	return true
}

// maybeEnqueue puts r on the monitor queue when all attached dependents
// have issued a request.
func (r *refObj) maybeEnqueue(sp *singlePass) {
	if r.queued || !r.hasPending || len(r.attached) == 0 {
		return
	}
	if len(r.requested) < len(r.attached) {
		return
	}
	r.queued = true
	sp.queue = append(sp.queue, r)
}

// deliver advances r to its next value and delivers it to every dependent
// that requested it (Algorithm 3 runs in each).
func (sp *singlePass) deliver(r *refObj) error {
	if !r.hasPending {
		return fmt.Errorf("ind: delivery from exhausted referenced object %s", r.attr.Ref)
	}
	r.current = r.pending
	r.pending, r.hasPending = r.reader.Next()
	if err := r.reader.Err(); err != nil {
		return err
	}
	receivers := make([]*depObj, 0, len(r.requested))
	for d := range r.requested {
		receivers = append(receivers, d)
	}
	sort.Slice(receivers, func(i, j int) bool { return receivers[i].attr.ID < receivers[j].attr.ID })
	r.requested = make(map[*depObj]struct{})
	for _, d := range receivers {
		if _, still := r.attached[d]; !still {
			continue
		}
		sp.stats.Events++
		d.update(r, r.current, sp)
	}
	// Requests issued during the updates may already complete the next
	// delivery round.
	r.maybeEnqueue(sp)
	return nil
}

// update is Algorithm 3: the procedure run in a dependent object after
// delivery of a referenced value.
func (d *depObj) update(r *refObj, refValue string, sp *singlePass) {
	if _, ok := d.nextWaiting[r]; ok {
		// Compare with the next dependent value, once we advance.
		delete(d.nextWaiting, r)
		d.next[r] = refValue
		return
	}
	// Compare with the current dependent value.
	delete(d.currentWaiting, r)
	d.processComparison(r, refValue, sp)

	// Do we need the current value any longer?
	if len(d.currentWaiting) == 0 && (len(d.next) > 0 || len(d.nextWaiting) > 0) {
		d.advance(sp)
		// Update waiting lists.
		d.currentWaiting, d.nextWaiting = d.nextWaiting, make(map[*refObj]struct{})
		// Test corresponding inclusion dependencies.
		pending := make([]*refObj, 0, len(d.next))
		for r2 := range d.next {
			pending = append(pending, r2)
		}
		sort.Slice(pending, func(i, j int) bool { return pending[i].attr.ID < pending[j].attr.ID })
		vals := d.next
		d.next = make(map[*refObj]string)
		for _, r2 := range pending {
			d.processComparison(r2, vals[r2], sp)
		}
		// Do we need the current value any longer?
		if len(d.currentWaiting) == 0 && len(d.nextWaiting) > 0 {
			d.advance(sp)
			d.currentWaiting, d.nextWaiting = d.nextWaiting, make(map[*refObj]struct{})
		}
	}
}

// processComparison is Algorithm 2: compare the current dependent value
// with a received referenced value and decide how to proceed.
func (d *depObj) processComparison(r *refObj, refValue string, sp *singlePass) {
	sp.stats.Comparisons++
	switch {
	case d.current == refValue:
		if d.hasPend {
			// ∃ next dependent value: its match must be at a later
			// referenced position, so request the next referenced value.
			if r.wantNextValue(d, sp) {
				d.nextWaiting[r] = struct{}{}
			} else {
				sp.detach(d, r, false) // referenced exhausted, dep continues
			}
		} else {
			sp.detach(d, r, true) // IND candidate satisfied
		}
	case d.current > refValue:
		// Current dependent value may still appear later in r.
		if r.wantNextValue(d, sp) {
			d.currentWaiting[r] = struct{}{}
		} else {
			sp.detach(d, r, false) // current dep value ∉ r's values
		}
	default: // d.current < refValue
		sp.detach(d, r, false) // referenced cursor passed the dep value
	}
}

// advance reads the dependent object's next value. Algorithm 3 only calls
// it when a next value is guaranteed to exist.
func (d *depObj) advance(sp *singlePass) {
	if !d.hasPend {
		if sp.err == nil {
			sp.err = fmt.Errorf("ind: dependent object %s advanced past its last value", d.attr.Ref)
		}
		return
	}
	d.current, d.hasCur = d.pending, true
	d.pending, d.hasPend = d.reader.Next()
	if err := d.reader.Err(); err != nil && sp.err == nil {
		sp.err = err
	}
}

// detach removes the candidate (d ⊆ r) from play, recording the outcome,
// and closes files whose last candidate was decided.
func (sp *singlePass) detach(d *depObj, r *refObj, satisfied bool) {
	if _, ok := r.attached[d]; !ok {
		return
	}
	delete(r.attached, d)
	delete(r.requested, d)
	delete(d.currentWaiting, r)
	delete(d.nextWaiting, r)
	delete(d.next, r)
	if satisfied {
		sp.satisfied = append(sp.satisfied, IND{Dep: d.attr.Ref, Ref: r.attr.Ref})
	}
	if len(r.attached) == 0 {
		if r.reader != nil {
			r.reader.Close()
			r.reader = nil
			sp.open--
		}
	} else {
		// The departing dependent may have been the last one the
		// referenced object was waiting for.
		r.maybeEnqueue(sp)
	}
	if sp.depDone(d) {
		if d.reader != nil {
			d.reader.Close()
			d.reader = nil
			sp.open--
		}
	}
}

// depDone reports whether d has no undecided candidates left.
func (sp *singlePass) depDone(d *depObj) bool {
	for _, r := range sp.refs {
		if _, ok := r.attached[d]; ok {
			return false
		}
	}
	return true
}
