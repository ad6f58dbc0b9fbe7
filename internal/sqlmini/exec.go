package sqlmini

import (
	"fmt"
	"sort"
	"strings"

	"spider/internal/relstore"
	"spider/internal/value"
)

// ExecStats counts the work a query performed. The counters are the
// machine-independent evidence behind the paper's Sec 2.2 findings: the
// SQL approaches scan and materialise far more tuples than the order-based
// algorithms read.
type ExecStats struct {
	// TuplesScanned counts rows read from base tables.
	TuplesScanned int64
	// RowsMaterialized counts rows buffered by blocking operators (hash
	// join build sides, MINUS inputs, IN-subquery sets, faithful ROWNUM).
	RowsMaterialized int64
	// HashProbes counts hash join and IN-set probes.
	HashProbes int64
	// Comparisons counts scalar comparisons evaluated in predicates.
	Comparisons int64
	// RowsEmitted counts rows in the final result.
	RowsEmitted int64
}

// Add accumulates other into s.
func (s *ExecStats) Add(other ExecStats) {
	s.TuplesScanned += other.TuplesScanned
	s.RowsMaterialized += other.RowsMaterialized
	s.HashProbes += other.HashProbes
	s.Comparisons += other.Comparisons
	s.RowsEmitted += other.RowsEmitted
}

// Engine executes parsed SELECTs against a relstore database.
//
// By default the engine reproduces the optimizer behaviour the paper
// observed on the commercial RDBMS (Sec 2.2): ROWNUM predicates are *not*
// merged into inner queries, so a `where rownum < 2` wrapper still pays for
// the complete inner result ("the special implementation of the rownum
// function ... obviously is not merged with the inner queries"). Setting
// EnableEarlyStop makes ROWNUM stop pulling from its child — the behaviour
// the authors wished for; the ablation bench quantifies the difference.
type Engine struct {
	DB *relstore.Database
	// EnableEarlyStop streams ROWNUM limits instead of materialising the
	// full child result first.
	EnableEarlyStop bool
	// HashedIN evaluates [NOT] IN subqueries against a hash set built
	// once. The default (false) is era-faithful: the engine the paper
	// measured executed an unindexed NOT IN as a correlated FILTER,
	// re-scanning the subquery per outer row with only a one-entry value
	// cache — the reason "not in" is by far the slowest row of Table 1.
	HashedIN bool
}

// Result is a fully materialised query result.
type Result struct {
	Columns []string
	Rows    [][]value.Value
	Stats   ExecStats
}

// Query parses and executes sql.
func (e *Engine) Query(sql string) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.Exec(stmt)
}

// Exec executes a parsed statement.
func (e *Engine) Exec(stmt *SelectStmt) (*Result, error) {
	st := &ExecStats{}
	it, err := e.plan(stmt, st)
	if err != nil {
		return nil, err
	}
	defer it.close()
	res := &Result{Columns: it.columns()}
	for {
		row, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		res.Rows = append(res.Rows, append([]value.Value(nil), row...))
	}
	st.RowsEmitted = int64(len(res.Rows))
	res.Stats = *st
	return res, nil
}

// iter is the executor's volcano-style iterator.
type iter interface {
	columns() []string
	next() ([]value.Value, bool, error)
	close()
}

// schema maps qualified column names to positions.
type schema struct {
	names  []string // output names
	tables []string // qualifier per column ("" when none)
}

func (s schema) resolve(c ColRef) (int, error) {
	found := -1
	for i := range s.names {
		if !strings.EqualFold(s.names[i], c.Name) {
			continue
		}
		if c.Table != "" && !strings.EqualFold(s.tables[i], c.Table) {
			continue
		}
		if found >= 0 {
			return 0, fmt.Errorf("sqlmini: ambiguous column reference %s", c.Name)
		}
		found = i
	}
	if found < 0 {
		name := c.Name
		if c.Table != "" {
			name = c.Table + "." + c.Name
		}
		return 0, fmt.Errorf("sqlmini: unknown column %s", name)
	}
	return found, nil
}

// ---------------------------------------------------------------- planner

func (e *Engine) plan(stmt *SelectStmt, st *ExecStats) (iter, error) {
	child, sch, err := e.planFrom(stmt.From, stmt, st)
	if err != nil {
		return nil, err
	}

	// Split WHERE into ROWNUM limit and ordinary predicate conjuncts.
	limit := int64(-1)
	var conjuncts []Expr
	for _, c := range splitAnd(stmt.Where) {
		if n, ok := rownumLimit(c); ok {
			if limit < 0 || n < limit {
				limit = n
			}
			continue
		}
		conjuncts = append(conjuncts, c)
	}
	if len(conjuncts) > 0 {
		pred := conjuncts[0]
		for _, c := range conjuncts[1:] {
			pred = Binary{Op: "AND", L: pred, R: c}
		}
		f := &filterIter{child: child, sch: sch, eng: e, st: st, pred: pred}
		child = f
	}
	if limit >= 0 {
		child = &limitIter{child: child, n: limit, materialize: !e.EnableEarlyStop, st: st}
	}

	// Aggregate query?
	if isAggregate(stmt) {
		agg, err := newAggIter(child, sch, stmt, e, st)
		if err != nil {
			return nil, err
		}
		return agg, nil
	}

	// Projection.
	out := child
	outSch := sch
	if !stmt.Star {
		p, ps, err := newProjectIter(child, sch, stmt.Items, e, st)
		if err != nil {
			return nil, err
		}
		out, outSch = p, ps
	}
	if stmt.Distinct {
		out = &distinctIter{child: out, st: st}
	}
	if len(stmt.OrderBy) > 0 {
		keys := make([]int, len(stmt.OrderBy))
		for i, c := range stmt.OrderBy {
			k, err := outSch.resolve(c)
			if err != nil {
				return nil, err
			}
			keys[i] = k
		}
		out = &sortIter{child: out, keys: keys, st: st}
	}
	return out, nil
}

// planFrom plans stmt's FROM item, or a table of its join.
func (e *Engine) planFrom(from FromItem, stmt *SelectStmt, st *ExecStats) (iter, schema, error) {
	switch f := from.(type) {
	case TableRef:
		t := e.DB.Table(f.Name)
		if t == nil {
			return nil, schema{}, fmt.Errorf("sqlmini: unknown table %q", f.Name)
		}
		qualifier := f.Name
		if f.Alias != "" {
			qualifier = f.Alias
		}
		sch := schema{}
		var cols []int
		for i, c := range t.Columns {
			sch.names = append(sch.names, c.Name)
			sch.tables = append(sch.tables, qualifier)
			if reads(stmt, c.Name) {
				cols = append(cols, i)
			}
		}
		return &scanIter{t: t, st: st, sch: sch, cols: cols, buf: make([]value.Value, len(t.Columns))}, sch, nil
	case SubqueryRef:
		it, err := e.plan(f.Stmt, st)
		if err != nil {
			return nil, schema{}, err
		}
		sch := schema{names: it.columns(), tables: make([]string, len(it.columns()))}
		return it, sch, nil
	case JoinRef:
		left, lsch, err := e.planFrom(f.Left, stmt, st)
		if err != nil {
			return nil, schema{}, err
		}
		right, rsch, err := e.planFrom(f.Right, stmt, st)
		if err != nil {
			left.close()
			return nil, schema{}, err
		}
		li, err := lsch.resolve(f.LeftC)
		if err != nil {
			// The ON clause may name the columns in either order.
			li, err = rsch.resolve(f.LeftC)
			if err != nil {
				left.close()
				right.close()
				return nil, schema{}, err
			}
			f.LeftC, f.RightC = f.RightC, f.LeftC
			li, err = lsch.resolve(f.LeftC)
			if err != nil {
				left.close()
				right.close()
				return nil, schema{}, err
			}
		}
		ri, err := rsch.resolve(f.RightC)
		if err != nil {
			left.close()
			right.close()
			return nil, schema{}, err
		}
		sch := schema{
			names:  append(append([]string(nil), lsch.names...), rsch.names...),
			tables: append(append([]string(nil), lsch.tables...), rsch.tables...),
		}
		return &hashJoinIter{left: left, right: right, li: li, ri: ri, st: st, sch: sch}, sch, nil
	case SetOpRef:
		if f.Op != "MINUS" {
			return nil, schema{}, fmt.Errorf("sqlmini: unsupported set operation %s", f.Op)
		}
		left, err := e.plan(f.Left, st)
		if err != nil {
			return nil, schema{}, err
		}
		right, err := e.plan(f.Right, st)
		if err != nil {
			left.close()
			return nil, schema{}, err
		}
		sch := schema{names: left.columns(), tables: make([]string, len(left.columns()))}
		return &minusIter{left: left, right: right, st: st}, sch, nil
	default:
		return nil, schema{}, fmt.Errorf("sqlmini: unsupported FROM item %T", from)
	}
}

// reads reports whether stmt may read the column called name from a
// table of its FROM item: it selects *, or it names the column outside
// its subqueries, which are planned on their own. ORDER BY names output
// columns, which the select items already name. Names match without
// case, as schema.resolve matches them.
func reads(stmt *SelectStmt, name string) bool {
	if stmt.Star || mentions(stmt.Where, name) {
		return true
	}
	for _, it := range stmt.Items {
		if mentions(it.Expr, name) {
			return true
		}
	}
	j, ok := stmt.From.(JoinRef)
	return ok && (strings.EqualFold(j.LeftC.Name, name) || strings.EqualFold(j.RightC.Name, name))
}

// mentions reports whether e names the column called name outside its
// subqueries.
func mentions(e Expr, name string) bool {
	switch x := e.(type) {
	case ColRef:
		return strings.EqualFold(x.Name, name)
	case Call:
		for _, a := range x.Args {
			if mentions(a, name) {
				return true
			}
		}
	case Binary:
		return mentions(x.L, name) || mentions(x.R, name)
	case IsNull:
		return mentions(x.X, name)
	case InSubquery:
		return mentions(x.X, name)
	}
	return false
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(Binary); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

// rownumLimit recognises `rownum < N` and `rownum <= N` conjuncts and
// returns the row budget.
func rownumLimit(e Expr) (int64, bool) {
	b, ok := e.(Binary)
	if !ok {
		return 0, false
	}
	if _, isRownum := b.L.(Rownum); !isRownum {
		return 0, false
	}
	lit, ok := b.R.(Lit)
	if !ok || lit.Val.Kind() != value.Int {
		return 0, false
	}
	switch b.Op {
	case "<":
		return lit.Val.Int() - 1, true
	case "<=":
		return lit.Val.Int(), true
	}
	return 0, false
}

func isAggregate(stmt *SelectStmt) bool {
	for _, it := range stmt.Items {
		if c, ok := it.Expr.(Call); ok && strings.EqualFold(c.Name, "count") {
			return true
		}
	}
	return false
}

// ------------------------------------------------------------- operators

// scanIter reads its table's rows into one buffer it reuses; an
// operator that keeps a row copies it. It reads only the columns its
// statement may read (see reads) and leaves the others NULL.
type scanIter struct {
	t    *relstore.Table
	st   *ExecStats
	sch  schema
	pos  int
	cols []int
	buf  []value.Value
}

func (s *scanIter) columns() []string { return s.sch.names }
func (s *scanIter) close()            {}
func (s *scanIter) next() ([]value.Value, bool, error) {
	if s.pos >= s.t.RowCount() {
		return nil, false, nil
	}
	for _, c := range s.cols {
		s.buf[c] = s.t.Value(s.pos, c)
	}
	s.pos++
	s.st.TuplesScanned++
	return s.buf, true, nil
}

type filterIter struct {
	child iter
	sch   schema
	eng   *Engine
	st    *ExecStats
	pred  Expr
	env   *evalEnv
}

func (f *filterIter) columns() []string { return f.child.columns() }
func (f *filterIter) close()            { f.child.close() }
func (f *filterIter) next() ([]value.Value, bool, error) {
	if f.env == nil {
		f.env = &evalEnv{eng: f.eng, sch: f.sch, st: f.st}
	}
	for {
		row, ok, err := f.child.next()
		if err != nil || !ok {
			return nil, false, err
		}
		v, err := f.env.eval(f.pred, row)
		if err != nil {
			return nil, false, err
		}
		if !v.IsNull() && v.Kind() == value.Bool && v.Bool() {
			return row, true, nil
		}
	}
}

type projectIter struct {
	child iter
	exprs []Expr
	// cols[i] is the input position of exprs[i] when it is a column
	// that resolves at plan time, or -1; such a column is copied
	// rather than evaluated, which would resolve its name per row.
	cols  []int
	names []string
	env   *evalEnv
	buf   []value.Value
}

func newProjectIter(child iter, sch schema, items []SelectItem, eng *Engine, st *ExecStats) (iter, schema, error) {
	p := &projectIter{child: child, env: &evalEnv{eng: eng, sch: sch, st: st}}
	outSch := schema{}
	for _, it := range items {
		p.exprs = append(p.exprs, it.Expr)
		col := -1
		if c, ok := it.Expr.(ColRef); ok {
			if i, err := sch.resolve(c); err == nil {
				col = i
			}
		}
		p.cols = append(p.cols, col)
		name := it.Alias
		if name == "" {
			switch e := it.Expr.(type) {
			case ColRef:
				name = e.Name
			case Call:
				name = strings.ToLower(e.Name)
			default:
				name = "expr"
			}
		}
		p.names = append(p.names, name)
		outSch.names = append(outSch.names, name)
		outSch.tables = append(outSch.tables, "")
	}
	p.buf = make([]value.Value, len(p.exprs))
	return p, outSch, nil
}

func (p *projectIter) columns() []string { return p.names }
func (p *projectIter) close()            { p.child.close() }
func (p *projectIter) next() ([]value.Value, bool, error) {
	row, ok, err := p.child.next()
	if err != nil || !ok {
		return nil, false, err
	}
	for i, e := range p.exprs {
		if c := p.cols[i]; c >= 0 {
			p.buf[i] = row[c]
			continue
		}
		v, err := p.env.eval(e, row)
		if err != nil {
			return nil, false, err
		}
		p.buf[i] = v
	}
	return p.buf, true, nil
}

// hashJoinIter is an inner equi-join: the right input is built into a hash
// table; the left input streams and probes. NULL keys never match. This is
// the "extensively optimized" join of Sec 2.2 — fast, but structurally
// unable to stop at the first dependent value without a join partner.
type hashJoinIter struct {
	left, right iter
	li, ri      int
	st          *ExecStats
	sch         schema

	built bool
	// keep lists the positions of a build row that the right input
	// fills; a table scan leaves the columns no statement reads NULL.
	// rows holds those values of every build row, one row after
	// another. table maps a join key to its entry in chains, and after
	// links each row to the following row with the same key, so every
	// key's rows are probed in build order.
	keep    []int
	nulls   []value.Value // a right row of NULLs
	rows    []value.Value
	table   map[string]int
	chains  []chain
	after   []int
	key     []byte
	pending int // the next build row to join to curLeft, or -1
	curLeft []value.Value
	out     []value.Value
}

// chain is the first and last build row with one join key.
type chain struct{ first, last int }

func (h *hashJoinIter) columns() []string { return h.sch.names }
func (h *hashJoinIter) close()            { h.left.close(); h.right.close() }

func (h *hashJoinIter) build() error {
	h.nulls = make([]value.Value, len(h.right.columns()))
	h.table = make(map[string]int)
	h.pending = -1
	if s, ok := h.right.(*scanIter); ok {
		h.keep = s.cols
		h.rows = make([]value.Value, 0, s.t.RowCount()*len(h.keep))
		h.after = make([]int, 0, s.t.RowCount())
	} else {
		for c := range h.nulls {
			h.keep = append(h.keep, c)
		}
	}
	for {
		row, ok, err := h.right.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		v := row[h.ri]
		if v.IsNull() {
			continue
		}
		r := len(h.after)
		for _, c := range h.keep {
			h.rows = append(h.rows, row[c])
		}
		h.after = append(h.after, -1)
		h.key = v.AppendCanonical(h.key[:0])
		if c, ok := h.table[string(h.key)]; ok {
			h.after[h.chains[c].last] = r
			h.chains[c].last = r
		} else {
			h.table[string(h.key)] = len(h.chains)
			h.chains = append(h.chains, chain{r, r})
		}
		h.st.RowsMaterialized++
	}
	h.built = true
	return nil
}

func (h *hashJoinIter) next() ([]value.Value, bool, error) {
	if !h.built {
		if err := h.build(); err != nil {
			return nil, false, err
		}
	}
	for {
		if r := h.pending; r >= 0 {
			h.pending = h.after[r]
			h.out = append(append(h.out[:0], h.curLeft...), h.nulls...)
			right, vals := h.out[len(h.curLeft):], h.rows[r*len(h.keep):]
			for i, c := range h.keep {
				right[c] = vals[i]
			}
			return h.out, true, nil
		}
		row, ok, err := h.left.next()
		if err != nil || !ok {
			return nil, false, err
		}
		v := row[h.li]
		if v.IsNull() {
			continue
		}
		h.st.HashProbes++
		h.key = v.AppendCanonical(h.key[:0])
		if c, ok := h.table[string(h.key)]; ok {
			h.curLeft = append(h.curLeft[:0], row...)
			h.pending = h.chains[c].first
		}
	}
}

// minusIter implements Oracle-style MINUS: the distinct rows of the left
// input that do not occur in the right input. Set difference is inherently
// blocking — both inputs must be consumed completely before the first
// output row can be guaranteed, which is precisely why the paper's
// `rownum < 2` wrapper around a MINUS cannot stop early (Sec 2.2).
//
// Like the commercial engine the paper measured, MINUS is executed by
// sorting both inputs and merging (a SORT UNIQUE on each side), which is
// why the paper's minus timings trail the hash-join timings.
type minusIter struct {
	left, right iter
	st          *ExecStats

	done bool
	rows [][]value.Value
	pos  int
}

func rowKey(row []value.Value) string {
	var b strings.Builder
	for i, v := range row {
		if i > 0 {
			b.WriteByte(0)
		}
		if v.IsNull() {
			b.WriteString("\x01N") // NULLs compare equal in set operations
		} else {
			b.WriteString("\x02")
			b.WriteString(v.Canonical())
		}
	}
	return b.String()
}

func (m *minusIter) columns() []string { return m.left.columns() }
func (m *minusIter) close()            { m.left.close(); m.right.close() }

func (m *minusIter) compute() error {
	type keyed struct {
		key string
		row []value.Value
	}
	var left []keyed
	for {
		row, ok, err := m.left.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		left = append(left, keyed{key: rowKey(row), row: append([]value.Value(nil), row...)})
		m.st.RowsMaterialized++
	}
	var right []string
	for {
		row, ok, err := m.right.next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		right = append(right, rowKey(row))
		m.st.RowsMaterialized++
	}
	// SORT UNIQUE both inputs, then merge.
	st := m.st
	sort.Slice(left, func(i, j int) bool { st.Comparisons++; return left[i].key < left[j].key })
	sort.Slice(right, func(i, j int) bool { st.Comparisons++; return right[i] < right[j] })
	ri := 0
	lastKey, have := "", false
	for _, l := range left {
		if have && l.key == lastKey {
			continue // SORT UNIQUE on the left side
		}
		lastKey, have = l.key, true
		for ri < len(right) && right[ri] < l.key {
			st.Comparisons++
			ri++
		}
		st.Comparisons++
		if ri < len(right) && right[ri] == l.key {
			continue
		}
		m.rows = append(m.rows, l.row)
	}
	m.done = true
	return nil
}

func (m *minusIter) next() ([]value.Value, bool, error) {
	if !m.done {
		if err := m.compute(); err != nil {
			return nil, false, err
		}
	}
	if m.pos >= len(m.rows) {
		return nil, false, nil
	}
	r := m.rows[m.pos]
	m.pos++
	return r, true, nil
}

// limitIter implements ROWNUM budgets. In faithful mode (materialize) it
// drains its child completely before emitting the first N rows — the
// commercial optimizer behaviour the paper measured. In early-stop mode it
// stops pulling once the budget is spent.
type limitIter struct {
	child       iter
	n           int64
	materialize bool
	st          *ExecStats

	emitted int64
	rows    [][]value.Value
	drained bool
	pos     int
}

func (l *limitIter) columns() []string { return l.child.columns() }
func (l *limitIter) close()            { l.child.close() }

func (l *limitIter) next() ([]value.Value, bool, error) {
	if l.materialize {
		if !l.drained {
			for {
				row, ok, err := l.child.next()
				if err != nil {
					return nil, false, err
				}
				if !ok {
					break
				}
				l.st.RowsMaterialized++
				if int64(len(l.rows)) < l.n {
					l.rows = append(l.rows, append([]value.Value(nil), row...))
				}
			}
			l.drained = true
		}
		if l.pos >= len(l.rows) {
			return nil, false, nil
		}
		r := l.rows[l.pos]
		l.pos++
		return r, true, nil
	}
	if l.emitted >= l.n {
		return nil, false, nil
	}
	row, ok, err := l.child.next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.emitted++
	return row, true, nil
}

type distinctIter struct {
	child iter
	st    *ExecStats
	seen  map[string]struct{}
}

func (d *distinctIter) columns() []string { return d.child.columns() }
func (d *distinctIter) close()            { d.child.close() }
func (d *distinctIter) next() ([]value.Value, bool, error) {
	if d.seen == nil {
		d.seen = make(map[string]struct{})
	}
	for {
		row, ok, err := d.child.next()
		if err != nil || !ok {
			return nil, false, err
		}
		k := rowKey(row)
		d.st.HashProbes++
		if _, dup := d.seen[k]; dup {
			continue
		}
		d.seen[k] = struct{}{}
		return row, true, nil
	}
}

type sortIter struct {
	child iter
	keys  []int
	st    *ExecStats

	done bool
	rows [][]value.Value
	pos  int
}

func (s *sortIter) columns() []string { return s.child.columns() }
func (s *sortIter) close()            { s.child.close() }
func (s *sortIter) next() ([]value.Value, bool, error) {
	if !s.done {
		for {
			row, ok, err := s.child.next()
			if err != nil {
				return nil, false, err
			}
			if !ok {
				break
			}
			s.rows = append(s.rows, append([]value.Value(nil), row...))
			s.st.RowsMaterialized++
		}
		st := s.st
		sort.SliceStable(s.rows, func(i, j int) bool {
			for _, k := range s.keys {
				st.Comparisons++
				c := compareNullable(s.rows[i][k], s.rows[j][k])
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		s.done = true
	}
	if s.pos >= len(s.rows) {
		return nil, false, nil
	}
	r := s.rows[s.pos]
	s.pos++
	return r, true, nil
}

// compareNullable orders NULLs last, otherwise by typed comparison.
func compareNullable(a, b value.Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return 1
	case b.IsNull():
		return -1
	default:
		return compareTyped(a, b)
	}
}

// compareTyped compares numerically when both operands are numeric and
// canonically otherwise.
func compareTyped(a, b value.Value) int {
	if isNumeric(a) && isNumeric(b) {
		fa, fb := asFloat(a), asFloat(b)
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		default:
			return 0
		}
	}
	return value.Compare(a, b)
}

func isNumeric(v value.Value) bool {
	return v.Kind() == value.Int || v.Kind() == value.Float
}

func asFloat(v value.Value) float64 {
	if v.Kind() == value.Int {
		return float64(v.Int())
	}
	return v.Float()
}

// aggIter evaluates an aggregate-only select list (COUNT forms).
type aggIter struct {
	child iter
	stmt  *SelectStmt
	env   *evalEnv
	names []string

	done bool
	out  []value.Value
}

func newAggIter(child iter, sch schema, stmt *SelectStmt, eng *Engine, st *ExecStats) (*aggIter, error) {
	a := &aggIter{child: child, stmt: stmt, env: &evalEnv{eng: eng, sch: sch, st: st}}
	for _, it := range stmt.Items {
		c, ok := it.Expr.(Call)
		if !ok || !strings.EqualFold(c.Name, "count") {
			return nil, fmt.Errorf("sqlmini: mixing aggregates and plain expressions is not supported")
		}
		name := it.Alias
		if name == "" {
			name = "count"
		}
		a.names = append(a.names, name)
	}
	return a, nil
}

func (a *aggIter) columns() []string { return a.names }
func (a *aggIter) close()            { a.child.close() }
func (a *aggIter) next() ([]value.Value, bool, error) {
	if a.done {
		return nil, false, nil
	}
	counts := make([]int64, len(a.stmt.Items))
	for {
		row, ok, err := a.child.next()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		for i, it := range a.stmt.Items {
			c := it.Expr.(Call)
			if c.Star {
				counts[i]++
				continue
			}
			v, err := a.env.eval(c.Args[0], row)
			if err != nil {
				return nil, false, err
			}
			if !v.IsNull() {
				counts[i]++
			}
		}
	}
	a.done = true
	a.out = a.out[:0]
	for _, n := range counts {
		a.out = append(a.out, value.NewInt(n))
	}
	return a.out, true, nil
}

// --------------------------------------------------------- expressions

// evalEnv evaluates expressions against rows of a given schema. IN
// subqueries are evaluated once and cached as a set of canonical values.
//
// NOT IN deviates deliberately from the SQL standard's three-valued
// semantics: the subquery is treated as the set of its non-NULL values.
// Under the standard, a single NULL in the referenced column would make
// `depColumn NOT IN (select refColumn ...)` return zero rows and falsely
// mark every IND candidate satisfied — a pitfall the paper's Figure 4
// statement does not guard against. Set semantics on s(b) is what the IND
// definition requires (Sec 1.2).
type evalEnv struct {
	eng *Engine
	sch schema
	st  *ExecStats

	inSets map[*SelectStmt]map[string]struct{}
	// filterCache is the FILTER operation's one-entry cache: the last
	// probed value and its result, per subquery.
	filterCache map[*SelectStmt]filterMemo
	// canon is probeIn's reused buffer for canonical encodings, so a
	// scanned INTEGER is compared without formatting a new string.
	canon []byte
}

type filterMemo struct {
	val string
	in  bool
	ok  bool
}

// probeIn reports whether cv occurs among the subquery's non-NULL values.
// With HashedIN the subquery is materialised once into a set; otherwise
// the subquery is re-executed per distinct consecutive probe value, with
// early exit on match — the correlated-FILTER plan of the engine the
// paper measured.
func (ev *evalEnv) probeIn(sub *SelectStmt, cv string) (bool, error) {
	if ev.eng.HashedIN {
		set, err := ev.inSet(sub)
		if err != nil {
			return false, err
		}
		ev.st.HashProbes++
		_, in := set[cv]
		return in, nil
	}
	if memo, ok := ev.filterCache[sub]; ok && memo.ok && memo.val == cv {
		return memo.in, nil
	}
	it, err := ev.eng.plan(sub, ev.st)
	if err != nil {
		return false, err
	}
	defer it.close()
	if len(it.columns()) != 1 {
		return false, fmt.Errorf("sqlmini: IN subquery must produce exactly one column, got %d", len(it.columns()))
	}
	in := false
	for {
		row, ok, err := it.next()
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		if row[0].IsNull() {
			continue
		}
		ev.st.Comparisons++
		ev.canon = row[0].AppendCanonical(ev.canon[:0])
		if string(ev.canon) == cv {
			in = true
			break
		}
	}
	if ev.filterCache == nil {
		ev.filterCache = make(map[*SelectStmt]filterMemo)
	}
	ev.filterCache[sub] = filterMemo{val: cv, in: in, ok: true}
	return in, nil
}

func (ev *evalEnv) eval(e Expr, row []value.Value) (value.Value, error) {
	switch x := e.(type) {
	case Lit:
		return x.Val, nil
	case ColRef:
		i, err := ev.sch.resolve(x)
		if err != nil {
			return value.Value{}, err
		}
		return row[i], nil
	case Rownum:
		return value.Value{}, fmt.Errorf("sqlmini: ROWNUM is only supported in `rownum < N` / `rownum <= N` conjuncts")
	case Call:
		switch strings.ToLower(x.Name) {
		case "to_char":
			v, err := ev.eval(x.Args[0], row)
			if err != nil {
				return value.Value{}, err
			}
			if v.IsNull() {
				return value.NewNull(), nil
			}
			return value.NewString(v.Canonical()), nil
		default:
			return value.Value{}, fmt.Errorf("sqlmini: function %s not allowed here", x.Name)
		}
	case IsNull:
		v, err := ev.eval(x.X, row)
		if err != nil {
			return value.Value{}, err
		}
		res := v.IsNull()
		if x.Negate {
			res = !res
		}
		return value.NewBool(res), nil
	case InSubquery:
		v, err := ev.eval(x.X, row)
		if err != nil {
			return value.Value{}, err
		}
		if v.IsNull() {
			return value.NewNull(), nil // unknown
		}
		in, err := ev.probeIn(x.Sub, v.Canonical())
		if err != nil {
			return value.Value{}, err
		}
		if x.Negate {
			in = !in
		}
		return value.NewBool(in), nil
	case Binary:
		return ev.evalBinary(x, row)
	default:
		return value.Value{}, fmt.Errorf("sqlmini: unsupported expression %T", e)
	}
}

func (ev *evalEnv) evalBinary(b Binary, row []value.Value) (value.Value, error) {
	if b.Op == "AND" || b.Op == "OR" {
		l, err := ev.eval(b.L, row)
		if err != nil {
			return value.Value{}, err
		}
		r, err := ev.eval(b.R, row)
		if err != nil {
			return value.Value{}, err
		}
		return threeValued(b.Op, l, r), nil
	}
	l, err := ev.eval(b.L, row)
	if err != nil {
		return value.Value{}, err
	}
	r, err := ev.eval(b.R, row)
	if err != nil {
		return value.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return value.NewNull(), nil
	}
	ev.st.Comparisons++
	c := compareTyped(l, r)
	switch b.Op {
	case "=":
		return value.NewBool(c == 0), nil
	case "<>":
		return value.NewBool(c != 0), nil
	case "<":
		return value.NewBool(c < 0), nil
	case "<=":
		return value.NewBool(c <= 0), nil
	case ">":
		return value.NewBool(c > 0), nil
	case ">=":
		return value.NewBool(c >= 0), nil
	default:
		return value.Value{}, fmt.Errorf("sqlmini: unsupported operator %q", b.Op)
	}
}

// threeValued implements SQL's three-valued AND/OR over Bool-or-NULL.
func threeValued(op string, l, r value.Value) value.Value {
	lb, lNull := boolOf(l)
	rb, rNull := boolOf(r)
	if op == "AND" {
		switch {
		case !lNull && !lb, !rNull && !rb:
			return value.NewBool(false)
		case lNull || rNull:
			return value.NewNull()
		default:
			return value.NewBool(true)
		}
	}
	switch {
	case !lNull && lb, !rNull && rb:
		return value.NewBool(true)
	case lNull || rNull:
		return value.NewNull()
	default:
		return value.NewBool(false)
	}
}

func boolOf(v value.Value) (b, isNull bool) {
	if v.IsNull() {
		return false, true
	}
	if v.Kind() == value.Bool {
		return v.Bool(), false
	}
	return false, true
}

// inSet evaluates the IN subquery once, materialising its first column's
// non-NULL values as a set (HashedIN mode).
func (ev *evalEnv) inSet(sub *SelectStmt) (map[string]struct{}, error) {
	if ev.inSets == nil {
		ev.inSets = make(map[*SelectStmt]map[string]struct{})
	}
	if set, ok := ev.inSets[sub]; ok {
		return set, nil
	}
	it, err := ev.eng.plan(sub, ev.st)
	if err != nil {
		return nil, err
	}
	defer it.close()
	if len(it.columns()) != 1 {
		return nil, fmt.Errorf("sqlmini: IN subquery must produce exactly one column, got %d", len(it.columns()))
	}
	set := make(map[string]struct{})
	for {
		row, ok, err := it.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if !row[0].IsNull() {
			set[row[0].Canonical()] = struct{}{}
			ev.st.RowsMaterialized++
		}
	}
	ev.inSets[sub] = set
	return set, nil
}
