package sql

import (
	"fmt"
	"strconv"
	"strings"

	"apuama/internal/sqltypes"
)

// Parser is a hand-written recursive-descent parser with the usual
// precedence ladder: OR < AND < NOT < predicates < additive <
// multiplicative < unary < primary. It pulls tokens from the lexer on
// demand through a fixed window of two: peekAt(1) is its deepest
// lookahead.
type parser struct {
	lx  lexer
	win [2]token // win[:n] are the next tokens
	n   int
	// err is the lexer's first error; the window reads EOF from there on,
	// and the statement fails with it (see lexErr).
	err error
}

// Parse parses a single SQL statement (an optional trailing semicolon is
// allowed).
func Parse(src string) (Statement, error) {
	p := parser{lx: lexer{src: src}}
	st, err := p.statement()
	if err == nil {
		p.eatSymbol(";")
		if !p.atEOF() {
			err = p.errorf("unexpected trailing input %q", p.peek().text)
		}
	}
	if lerr := p.lexErr(); lerr != nil {
		return nil, lerr
	}
	if err != nil {
		return nil, err
	}
	return st, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(src string) (*SelectStmt, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("expected SELECT statement, got %T", st)
	}
	return sel, nil
}

// ParseAll parses a semicolon-separated script.
func ParseAll(src string) ([]Statement, error) {
	p := parser{lx: lexer{src: src}}
	var out []Statement
	var err error
	for err == nil && !p.atEOF() {
		var st Statement
		if st, err = p.statement(); err != nil {
			break
		}
		out = append(out, st)
		if !p.eatSymbol(";") && !p.atEOF() {
			err = p.errorf("expected ';' between statements")
		}
	}
	if lerr := p.lexErr(); lerr != nil {
		return nil, lerr
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// lexErr lexes what the parser has not read and returns the lexer's first
// error in the whole input, so a statement with a lexical error fails
// with it wherever the parser stopped — as when the input was lexed
// before parsing.
func (p *parser) lexErr() error {
	for p.err == nil {
		t, err := p.lx.next()
		if err != nil {
			p.err = err
		}
		if t.kind == tokEOF {
			break
		}
	}
	return p.err
}

func (p *parser) statement() (Statement, error) {
	switch {
	case p.peekKeyword("select"):
		return p.selectStmt()
	case p.peekKeyword("insert"):
		return p.insertStmt()
	case p.peekKeyword("delete"):
		return p.deleteStmt()
	case p.peekKeyword("update"):
		return p.updateStmt()
	case p.peekKeyword("set"):
		return p.setStmt()
	case p.peekKeyword("create"):
		return p.createStmt()
	case p.peekKeyword("explain"):
		p.advance()
		sel, err := p.selectStmt()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Query: sel}, nil
	default:
		return nil, p.errorf("expected statement, got %q", p.peek().text)
	}
}

// --- token helpers ---

// fill lexes into the window until it holds k tokens. After the lexer's
// first error every token is EOF.
func (p *parser) fill(k int) {
	for p.n < k {
		t, err := p.lx.next()
		if err != nil {
			p.err = err
			p.lx.pos = len(p.lx.src)
			t = token{kind: tokEOF, pos: p.lx.pos}
		}
		p.win[p.n] = t
		p.n++
	}
}

func (p *parser) peek() token {
	p.fill(1)
	return p.win[0]
}

// peekAt returns the token n ahead of the next one, n <= 1.
func (p *parser) peekAt(n int) token {
	p.fill(n + 1)
	return p.win[n]
}

func (p *parser) advance() token {
	t := p.peek()
	if t.kind != tokEOF {
		p.win[0] = p.win[1]
		p.n--
	}
	return t
}

func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokKeyword && t.text == kw
}

func (p *parser) eatKeyword(kw string) bool {
	if p.peekKeyword(kw) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.eatKeyword(kw) {
		return p.errorf("expected %q, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) peekSymbol(s string) bool {
	t := p.peek()
	return t.kind == tokSymbol && t.text == s
}

func (p *parser) eatSymbol(s string) bool {
	if p.peekSymbol(s) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expectSymbol(s string) error {
	if !p.eatSymbol(s) {
		return p.errorf("expected %q, got %q", s, p.peek().text)
	}
	return nil
}

// ident accepts an identifier; some keywords double as identifiers in
// column positions is deliberately NOT allowed to keep the grammar strict.
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return "", p.errorf("expected identifier, got %q", t.text)
	}
	p.advance()
	return t.text, nil
}

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

// --- SELECT ---

func (p *parser) selectStmt() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	s := &SelectStmt{}
	s.Distinct = p.eatKeyword("distinct")
	for {
		if p.eatSymbol("*") {
			s.Items = append(s.Items, SelectItem{Star: true})
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.eatKeyword("as") {
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			} else if p.peek().kind == tokIdent {
				item.Alias = p.advance().text
			}
			s.Items = append(s.Items, item)
		}
		if !p.eatSymbol(",") {
			break
		}
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		ref := TableRef{Name: name}
		if p.peek().kind == tokIdent {
			ref.Alias = p.advance().text
		} else if p.eatKeyword("as") {
			a, err := p.ident()
			if err != nil {
				return nil, err
			}
			ref.Alias = a
		}
		s.From = append(s.From, ref)
		if !p.eatSymbol(",") {
			break
		}
	}
	if p.eatKeyword("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Where = e
	}
	if p.eatKeyword("group") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.GroupBy = append(s.GroupBy, e)
			if !p.eatSymbol(",") {
				break
			}
		}
	}
	if p.eatKeyword("having") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Having = e
	}
	if p.eatKeyword("order") {
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.eatKeyword("desc") {
				item.Desc = true
			} else {
				p.eatKeyword("asc")
			}
			s.OrderBy = append(s.OrderBy, item)
			if !p.eatSymbol(",") {
				break
			}
		}
	}
	if p.eatKeyword("limit") {
		t := p.peek()
		if t.kind != tokNumber {
			return nil, p.errorf("expected number after limit, got %q", t.text)
		}
		p.advance()
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad limit %q", t.text)
		}
		s.Limit = &n
	}
	return s, nil
}

// --- DML ---

func (p *parser) insertStmt() (*InsertStmt, error) {
	if err := p.expectKeyword("insert"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name}
	if p.eatSymbol("(") {
		for {
			c, err := p.ident()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c)
			if !p.eatSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKeyword("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.eatSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.eatSymbol(",") {
			break
		}
	}
	return st, nil
}

func (p *parser) deleteStmt() (*DeleteStmt, error) {
	if err := p.expectKeyword("delete"); err != nil {
		return nil, err
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: name}
	if p.eatKeyword("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

func (p *parser) updateStmt() (*UpdateStmt, error) {
	if err := p.expectKeyword("update"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, Assignment{Column: col, Expr: e})
		if !p.eatSymbol(",") {
			break
		}
	}
	if p.eatKeyword("where") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	return st, nil
}

// setStmt parses "SET name = value" and "SET name TO value". Bare ON/OFF
// identifiers become booleans, matching PostgreSQL's enable_seqscan knob.
func (p *parser) setStmt() (*SetStmt, error) {
	if err := p.expectKeyword("set"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if !p.eatSymbol("=") && !p.eatKeyword("to") {
		return nil, p.errorf("expected '=' or TO in SET")
	}
	t := p.advance()
	var v sqltypes.Value
	switch t.kind {
	case tokNumber:
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			v = sqltypes.NewFloat(f)
		} else {
			n, err := strconv.ParseInt(t.text, 10, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			v = sqltypes.NewInt(n)
		}
	case tokString:
		v = sqltypes.NewString(t.text)
	case tokIdent:
		switch t.text {
		case "on":
			v = sqltypes.NewBool(true)
		case "off":
			v = sqltypes.NewBool(false)
		default:
			v = sqltypes.NewString(t.text)
		}
	case tokKeyword:
		switch t.text {
		case "true", "on": // "on" is a keyword (CREATE INDEX ... ON)
			v = sqltypes.NewBool(true)
		case "false":
			v = sqltypes.NewBool(false)
		default:
			return nil, p.errorf("unexpected SET value %q", t.text)
		}
	default:
		return nil, p.errorf("unexpected SET value %q", t.text)
	}
	return &SetStmt{Name: name, Value: v}, nil
}

// --- DDL ---

func (p *parser) createStmt() (Statement, error) {
	if err := p.expectKeyword("create"); err != nil {
		return nil, err
	}
	clustered := p.eatKeyword("clustered")
	switch {
	case p.eatKeyword("table"):
		if clustered {
			return nil, p.errorf("CLUSTERED applies to indexes, not tables")
		}
		return p.createTable()
	case p.eatKeyword("index"):
		return p.createIndex(clustered)
	default:
		return nil, p.errorf("expected TABLE or INDEX after CREATE")
	}
}

func (p *parser) createTable() (*CreateTableStmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name}
	for {
		if p.eatKeyword("primary") {
			if err := p.expectKeyword("key"); err != nil {
				return nil, err
			}
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			for {
				c, err := p.ident()
				if err != nil {
					return nil, err
				}
				st.PrimaryKey = append(st.PrimaryKey, c)
				if !p.eatSymbol(",") {
					break
				}
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			kind, err := p.columnType()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, ColumnDef{Name: col, Type: kind})
		}
		if !p.eatSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

// columnType maps SQL type names (with optional precision args) to kinds.
func (p *parser) columnType() (sqltypes.Kind, error) {
	t := p.advance()
	var name string
	switch t.kind {
	case tokIdent:
		name = t.text
	case tokKeyword:
		name = t.text // "date" is a keyword
	default:
		return sqltypes.KindNull, p.errorf("expected type name, got %q", t.text)
	}
	// Swallow optional (n) or (p, s).
	if p.eatSymbol("(") {
		for !p.eatSymbol(")") {
			if p.atEOF() {
				return sqltypes.KindNull, p.errorf("unterminated type arguments")
			}
			p.advance()
		}
	}
	switch name {
	case "bigint", "int", "integer", "smallint":
		return sqltypes.KindInt, nil
	case "double", "float", "real", "decimal", "numeric":
		return sqltypes.KindFloat, nil
	case "varchar", "char", "text", "character":
		return sqltypes.KindString, nil
	case "date":
		return sqltypes.KindDate, nil
	case "boolean", "bool":
		return sqltypes.KindBool, nil
	default:
		return sqltypes.KindNull, p.errorf("unknown type %q", name)
	}
}

func (p *parser) createIndex(clustered bool) (*CreateIndexStmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("on"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	st := &CreateIndexStmt{Name: name, Table: table, Clustered: clustered}
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, c)
		if !p.eatSymbol(",") {
			break
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return st, nil
}

// --- expressions ---

func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &OrExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.eatKeyword("and") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &AndExpr{L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.peekKeyword("not") && !p.nextIsExistsAfterNot() {
		p.advance()
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	return p.predicate()
}

// nextIsExistsAfterNot lets "not exists (...)" parse into ExistsExpr{Not}
// rather than NotExpr{ExistsExpr} so the rewriter sees it directly.
func (p *parser) nextIsExistsAfterNot() bool {
	t := p.peekAt(1)
	return t.kind == tokKeyword && t.text == "exists"
}

func (p *parser) predicate() (Expr, error) {
	if p.eatKeyword("not") { // only reachable for "not exists"
		if err := p.expectKeyword("exists"); err != nil {
			return nil, err
		}
		sub, err := p.parenSelect()
		if err != nil {
			return nil, err
		}
		return &ExistsExpr{Sub: sub, Not: true}, nil
	}
	if p.eatKeyword("exists") {
		sub, err := p.parenSelect()
		if err != nil {
			return nil, err
		}
		return &ExistsExpr{Sub: sub}, nil
	}
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	// Comparison operators.
	if t := p.peek(); t.kind == tokSymbol {
		switch t.text {
		case "=", "<>", "<", "<=", ">", ">=":
			p.advance()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &CompareExpr{Op: t.text, L: l, R: r}, nil
		}
	}
	not := false
	if p.peekKeyword("not") {
		nxt := p.peekAt(1)
		if nxt.kind == tokKeyword && (nxt.text == "between" || nxt.text == "in" || nxt.text == "like") {
			p.advance()
			not = true
		}
	}
	switch {
	case p.eatKeyword("between"):
		lo, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{E: l, Lo: lo, Hi: hi, Not: not}, nil
	case p.eatKeyword("in"):
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		if p.peekKeyword("select") {
			sub, err := p.selectStmt()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return &InExpr{E: l, Sub: sub, Not: not}, nil
		}
		var list []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.eatSymbol(",") {
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InExpr{E: l, List: list, Not: not}, nil
	case p.eatKeyword("like"):
		pat, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &LikeExpr{E: l, Pattern: pat, Not: not}, nil
	case p.eatKeyword("is"):
		isNot := p.eatKeyword("not")
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		return &IsNullExpr{E: l, Not: isNot}, nil
	}
	if not {
		return nil, p.errorf("dangling NOT")
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eatSymbol("+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: '+', L: l, R: r}
		case p.eatSymbol("-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: '-', L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.eatSymbol("*"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: '*', L: l, R: r}
		case p.eatSymbol("/"):
			r, err := p.unaryExpr()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: '/', L: l, R: r}
		default:
			return l, nil
		}
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	if p.eatSymbol("-") {
		e, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		// Fold -literal immediately for cleaner plans.
		if lit, ok := e.(*Literal); ok && lit.Val.IsNumeric() {
			v, err := sqltypes.Neg(lit.Val)
			if err == nil {
				return &Literal{Val: v}, nil
			}
		}
		return &NegExpr{E: e}, nil
	}
	p.eatSymbol("+")
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.advance()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Val: sqltypes.NewFloat(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad number %q", t.text)
		}
		return &Literal{Val: sqltypes.NewInt(n)}, nil
	case tokString:
		p.advance()
		return &Literal{Val: sqltypes.NewString(t.text)}, nil
	case tokParam:
		p.advance()
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 1 {
			return nil, p.errorf("bad placeholder $%s", t.text)
		}
		return &Placeholder{N: n}, nil
	case tokKeyword:
		switch t.text {
		case "null":
			p.advance()
			return &Literal{Val: sqltypes.Null()}, nil
		case "true":
			p.advance()
			return &Literal{Val: sqltypes.NewBool(true)}, nil
		case "false":
			p.advance()
			return &Literal{Val: sqltypes.NewBool(false)}, nil
		case "date":
			p.advance()
			lit := p.peek()
			if lit.kind != tokString {
				return nil, p.errorf("expected string after DATE, got %q", lit.text)
			}
			p.advance()
			v, err := sqltypes.ParseDate(lit.text)
			if err != nil {
				return nil, p.errorf("%v", err)
			}
			return &Literal{Val: v}, nil
		case "interval":
			p.advance()
			lit := p.peek()
			if lit.kind != tokString {
				return nil, p.errorf("expected string after INTERVAL, got %q", lit.text)
			}
			p.advance()
			n, err := strconv.ParseInt(strings.TrimSpace(lit.text), 10, 64)
			if err != nil {
				return nil, p.errorf("bad interval count %q", lit.text)
			}
			unit := p.peek()
			if unit.kind != tokIdent {
				return nil, p.errorf("expected interval unit, got %q", unit.text)
			}
			p.advance()
			u := strings.TrimSuffix(unit.text, "s")
			switch u {
			case "day", "month", "year":
			default:
				return nil, p.errorf("unsupported interval unit %q", unit.text)
			}
			return &Literal{Val: sqltypes.NewInterval(n, u)}, nil
		case "case":
			return p.caseExpr()
		case "exists":
			p.advance()
			sub, err := p.parenSelect()
			if err != nil {
				return nil, err
			}
			return &ExistsExpr{Sub: sub}, nil
		}
		return nil, p.errorf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		p.advance()
		// Function call?
		if p.peekSymbol("(") {
			return p.funcCall(t.text)
		}
		// Qualified column?
		if p.eatSymbol(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Name: col}, nil
		}
		return &ColumnRef{Name: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.advance()
			if p.peekKeyword("select") {
				sub, err := p.selectStmt()
				if err != nil {
					return nil, err
				}
				if err := p.expectSymbol(")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Sub: sub}, nil
			}
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}

func (p *parser) funcCall(name string) (Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if strings.ToLower(name) == "extract" {
		return p.extractCall()
	}
	f := &FuncExpr{Name: strings.ToLower(name)}
	if p.eatSymbol("*") {
		f.Star = true
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	f.Distinct = p.eatKeyword("distinct")
	if !p.peekSymbol(")") {
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			f.Args = append(f.Args, e)
			if !p.eatSymbol(",") {
				break
			}
		}
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return f, nil
}

// extractCall parses the tail of EXTRACT(field FROM expr).
func (p *parser) extractCall() (Expr, error) {
	t := p.peek()
	if t.kind != tokIdent {
		return nil, p.errorf("expected extract field, got %q", t.text)
	}
	p.advance()
	switch t.text {
	case "year", "month", "day":
	default:
		return nil, p.errorf("unsupported extract field %q", t.text)
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	e, err := p.expr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &ExtractExpr{Field: t.text, E: e}, nil
}

func (p *parser) caseExpr() (Expr, error) {
	if err := p.expectKeyword("case"); err != nil {
		return nil, err
	}
	c := &CaseExpr{}
	for p.eatKeyword("when") {
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("then"); err != nil {
			return nil, err
		}
		then, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, When{Cond: cond, Then: then})
	}
	if len(c.Whens) == 0 {
		return nil, p.errorf("CASE requires at least one WHEN")
	}
	if p.eatKeyword("else") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if err := p.expectKeyword("end"); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) parenSelect() (*SelectStmt, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	sub, err := p.selectStmt()
	if err != nil {
		return nil, err
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return sub, nil
}
