package sql

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"apuama/internal/sqltypes"
)

// This file renders AST nodes back to SQL text. Apuama's rewriter builds
// sub-queries structurally and sends them to node engines as SQL, so the
// renderer must produce text that this package's parser accepts
// (round-trip property, covered by tests).

// textBuf is the byte buffer SELECTs and expressions render into.
type textBuf []byte

func (b *textBuf) writeString(s string) { *b = append(*b, s...) }
func (b *textBuf) writeByte(c byte)     { *b = append(*b, c) }

// textBufs holds the buffers SQL renders into before it copies the text
// out, so a rendering makes one allocation.
var textBufs = sync.Pool{New: func() any { return new(textBuf) }}

// SQL renders the SELECT back to text.
func (s *SelectStmt) SQL() string {
	b := textBufs.Get().(*textBuf)
	*b = (*b)[:0]
	writeSelect(b, s)
	out := string(*b)
	textBufs.Put(b)
	return out
}

// AppendSQL appends the text SQL returns to dst, so a caller that renders
// into a buffer it reuses allocates nothing.
func (s *SelectStmt) AppendSQL(dst []byte) []byte {
	b := textBuf(dst)
	writeSelect(&b, s)
	return b
}

// writeSelect renders s into b, its expressions into the same buffer.
func writeSelect(b *textBuf, s *SelectStmt) {
	b.writeString("select ")
	if s.Distinct {
		b.writeString("distinct ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.writeString(", ")
		}
		if it.Star {
			b.writeByte('*')
			continue
		}
		writeExpr(b, it.Expr)
		if it.Alias != "" {
			b.writeString(" as ")
			b.writeString(it.Alias)
		}
	}
	b.writeString(" from ")
	for i, t := range s.From {
		if i > 0 {
			b.writeString(", ")
		}
		b.writeString(t.Name)
		if t.Alias != "" {
			b.writeByte(' ')
			b.writeString(t.Alias)
		}
	}
	if s.Where != nil {
		b.writeString(" where ")
		writeExpr(b, s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.writeString(" group by ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.writeString(", ")
			}
			writeExpr(b, e)
		}
	}
	if s.Having != nil {
		b.writeString(" having ")
		writeExpr(b, s.Having)
	}
	if len(s.OrderBy) > 0 {
		b.writeString(" order by ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.writeString(", ")
			}
			writeExpr(b, o.Expr)
			if o.Desc {
				b.writeString(" desc")
			}
		}
	}
	if s.Limit != nil {
		b.writeString(" limit ")
		*b = strconv.AppendInt(*b, *s.Limit, 10)
	}
}

// SQL renders the INSERT back to text.
func (s *InsertStmt) SQL() string {
	var b strings.Builder
	b.WriteString("insert into ")
	b.WriteString(s.Table)
	if len(s.Columns) > 0 {
		b.WriteString(" (")
		b.WriteString(strings.Join(s.Columns, ", "))
		b.WriteString(")")
	}
	b.WriteString(" values ")
	for i, row := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('(')
		for j, e := range row {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.SQL())
		}
		b.WriteByte(')')
	}
	return b.String()
}

// SQL renders the DELETE back to text.
func (s *DeleteStmt) SQL() string {
	out := "delete from " + s.Table
	if s.Where != nil {
		out += " where " + s.Where.SQL()
	}
	return out
}

// SQL renders the UPDATE back to text.
func (s *UpdateStmt) SQL() string {
	var b strings.Builder
	b.WriteString("update ")
	b.WriteString(s.Table)
	b.WriteString(" set ")
	for i, a := range s.Set {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(a.Column)
		b.WriteString(" = ")
		b.WriteString(a.Expr.SQL())
	}
	if s.Where != nil {
		b.WriteString(" where ")
		b.WriteString(s.Where.SQL())
	}
	return b.String()
}

// SQL renders the SET back to text.
func (s *SetStmt) SQL() string {
	return "set " + s.Name + " = " + renderValue(s.Value)
}

// SQL renders the CREATE TABLE back to text.
func (s *CreateTableStmt) SQL() string {
	var b strings.Builder
	b.WriteString("create table ")
	b.WriteString(s.Name)
	b.WriteString(" (")
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(typeName(c.Type))
	}
	if len(s.PrimaryKey) > 0 {
		b.WriteString(", primary key (")
		b.WriteString(strings.Join(s.PrimaryKey, ", "))
		b.WriteString(")")
	}
	b.WriteString(")")
	return b.String()
}

// SQL renders the EXPLAIN back to text.
func (s *ExplainStmt) SQL() string { return "explain " + s.Query.SQL() }

// SQL renders the CREATE INDEX back to text.
func (s *CreateIndexStmt) SQL() string {
	kw := "create index "
	if s.Clustered {
		kw = "create clustered index "
	}
	return kw + s.Name + " on " + s.Table + " (" + strings.Join(s.Columns, ", ") + ")"
}

func typeName(k sqltypes.Kind) string {
	switch k {
	case sqltypes.KindInt:
		return "bigint"
	case sqltypes.KindFloat:
		return "double"
	case sqltypes.KindString:
		return "varchar"
	case sqltypes.KindDate:
		return "date"
	case sqltypes.KindBool:
		return "boolean"
	default:
		return "varchar"
	}
}

// renderValue renders a literal value as a SQL token.
func renderValue(v sqltypes.Value) string {
	switch v.K {
	case sqltypes.KindNull:
		return "null"
	case sqltypes.KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case sqltypes.KindDate:
		return "date '" + v.DateString() + "'"
	case sqltypes.KindInterval:
		return fmt.Sprintf("interval '%d' %s", v.I, v.S)
	case sqltypes.KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case sqltypes.KindFloat:
		s := strconv.FormatFloat(v.F, 'f', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0" // keep the float-ness on round trip
		}
		return s
	default:
		return v.String()
	}
}

// SQL renderers for expressions: each renders through writeExpr, so a
// tree of any depth is written into one builder.

func (e *ColumnRef) SQL() string    { return exprSQL(e) }
func (e *Literal) SQL() string      { return renderValue(e.Val) }
func (e *Placeholder) SQL() string  { return "$" + strconv.Itoa(e.N) }
func (e *BinaryExpr) SQL() string   { return exprSQL(e) }
func (e *CompareExpr) SQL() string  { return exprSQL(e) }
func (e *AndExpr) SQL() string      { return exprSQL(e) }
func (e *OrExpr) SQL() string       { return exprSQL(e) }
func (e *NotExpr) SQL() string      { return exprSQL(e) }
func (e *BetweenExpr) SQL() string  { return exprSQL(e) }
func (e *InExpr) SQL() string       { return exprSQL(e) }
func (e *LikeExpr) SQL() string     { return exprSQL(e) }
func (e *IsNullExpr) SQL() string   { return exprSQL(e) }
func (e *ExistsExpr) SQL() string   { return exprSQL(e) }
func (e *SubqueryExpr) SQL() string { return exprSQL(e) }
func (e *CaseExpr) SQL() string     { return exprSQL(e) }
func (e *FuncExpr) SQL() string     { return exprSQL(e) }
func (e *ExtractExpr) SQL() string  { return exprSQL(e) }
func (e *NegExpr) SQL() string      { return exprSQL(e) }

func exprSQL(e Expr) string {
	b := textBufs.Get().(*textBuf)
	*b = (*b)[:0]
	writeExpr(b, e)
	out := string(*b)
	textBufs.Put(b)
	return out
}

// writeExpr renders e into b.
func writeExpr(b *textBuf, e Expr) {
	switch e := e.(type) {
	case *ColumnRef:
		if e.Table != "" {
			b.writeString(e.Table)
			b.writeByte('.')
		}
		b.writeString(e.Name)
	case *Literal:
		b.writeString(renderValue(e.Val))
	case *Placeholder:
		b.writeByte('$')
		*b = strconv.AppendInt(*b, int64(e.N), 10)
	case *BinaryExpr:
		b.writeByte('(')
		writeExpr(b, e.L)
		b.writeByte(' ')
		b.writeByte(e.Op)
		b.writeByte(' ')
		writeExpr(b, e.R)
		b.writeByte(')')
	case *CompareExpr:
		writeExpr(b, e.L)
		b.writeByte(' ')
		b.writeString(e.Op)
		b.writeByte(' ')
		writeExpr(b, e.R)
	case *AndExpr:
		writeJoined(b, "(", e.L, " and ", e.R, ")")
	case *OrExpr:
		writeJoined(b, "(", e.L, " or ", e.R, ")")
	case *NotExpr:
		b.writeString("not (")
		writeExpr(b, e.E)
		b.writeByte(')')
	case *BetweenExpr:
		writeExpr(b, e.E)
		if e.Not {
			b.writeString(" not")
		}
		writeJoined(b, " between ", e.Lo, " and ", e.Hi, "")
	case *InExpr:
		writeExpr(b, e.E)
		if e.Not {
			b.writeString(" not")
		}
		b.writeString(" in (")
		if e.Sub != nil {
			writeSelect(b, e.Sub)
		} else {
			writeList(b, e.List)
		}
		b.writeByte(')')
	case *LikeExpr:
		writeExpr(b, e.E)
		if e.Not {
			b.writeString(" not")
		}
		b.writeString(" like ")
		writeExpr(b, e.Pattern)
	case *IsNullExpr:
		writeExpr(b, e.E)
		if e.Not {
			b.writeString(" is not null")
		} else {
			b.writeString(" is null")
		}
	case *ExistsExpr:
		if e.Not {
			b.writeString("not ")
		}
		b.writeString("exists (")
		writeSelect(b, e.Sub)
		b.writeByte(')')
	case *SubqueryExpr:
		b.writeByte('(')
		writeSelect(b, e.Sub)
		b.writeByte(')')
	case *CaseExpr:
		b.writeString("case")
		for _, w := range e.Whens {
			writeJoined(b, " when ", w.Cond, " then ", w.Then, "")
		}
		if e.Else != nil {
			b.writeString(" else ")
			writeExpr(b, e.Else)
		}
		b.writeString(" end")
	case *FuncExpr:
		b.writeString(e.Name)
		b.writeByte('(')
		switch {
		case e.Star:
			b.writeByte('*')
		case e.Distinct:
			b.writeString("distinct ")
			fallthrough
		default:
			writeList(b, e.Args)
		}
		b.writeByte(')')
	case *ExtractExpr:
		b.writeString("extract(")
		b.writeString(e.Field)
		b.writeString(" from ")
		writeExpr(b, e.E)
		b.writeByte(')')
	case *NegExpr:
		b.writeString("-(")
		writeExpr(b, e.E)
		b.writeByte(')')
	}
}

// writeJoined writes pre, l, mid, r, post.
func writeJoined(b *textBuf, pre string, l Expr, mid string, r Expr, post string) {
	b.writeString(pre)
	writeExpr(b, l)
	b.writeString(mid)
	writeExpr(b, r)
	b.writeString(post)
}

// writeList writes es separated by commas.
func writeList(b *textBuf, es []Expr) {
	for i, x := range es {
		if i > 0 {
			b.writeString(", ")
		}
		writeExpr(b, x)
	}
}
