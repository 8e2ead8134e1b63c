package sql

import (
	"fmt"
	"strconv"
	"strings"

	"apuama/internal/sqltypes"
)

// This file renders AST nodes back to SQL text. Apuama's rewriter builds
// sub-queries structurally and sends them to node engines as SQL, so the
// renderer must produce text that this package's parser accepts
// (round-trip property, covered by tests).

// SQL renders the SELECT back to text.
func (s *SelectStmt) SQL() string {
	var b strings.Builder
	b.WriteString("select ")
	if s.Distinct {
		b.WriteString("distinct ")
	}
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteByte('*')
			continue
		}
		b.WriteString(it.Expr.SQL())
		if it.Alias != "" {
			b.WriteString(" as ")
			b.WriteString(it.Alias)
		}
	}
	b.WriteString(" from ")
	for i, t := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Name)
		if t.Alias != "" {
			b.WriteByte(' ')
			b.WriteString(t.Alias)
		}
	}
	if s.Where != nil {
		b.WriteString(" where ")
		b.WriteString(s.Where.SQL())
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" group by ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.SQL())
		}
	}
	if s.Having != nil {
		b.WriteString(" having ")
		b.WriteString(s.Having.SQL())
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" order by ")
		for i, o := range s.OrderBy {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(o.Expr.SQL())
			if o.Desc {
				b.WriteString(" desc")
			}
		}
	}
	if s.Limit != nil {
		fmt.Fprintf(&b, " limit %d", *s.Limit)
	}
	return b.String()
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

// SQL renderers for expressions.

func (e *ColumnRef) SQL() string {
	if e.Table != "" {
		return e.Table + "." + e.Name
	}
	return e.Name
}

func (e *Literal) SQL() string { return renderValue(e.Val) }

func (e *Placeholder) SQL() string { return "$" + strconv.Itoa(e.N) }

func (e *BinaryExpr) SQL() string {
	return "(" + e.L.SQL() + " " + string(e.Op) + " " + e.R.SQL() + ")"
}

func (e *CompareExpr) SQL() string {
	return e.L.SQL() + " " + e.Op + " " + e.R.SQL()
}

func (e *AndExpr) SQL() string { return "(" + e.L.SQL() + " and " + e.R.SQL() + ")" }
func (e *OrExpr) SQL() string  { return "(" + e.L.SQL() + " or " + e.R.SQL() + ")" }
func (e *NotExpr) SQL() string { return "not (" + e.E.SQL() + ")" }

func (e *BetweenExpr) SQL() string {
	op := " between "
	if e.Not {
		op = " not between "
	}
	return e.E.SQL() + op + e.Lo.SQL() + " and " + e.Hi.SQL()
}

func (e *InExpr) SQL() string {
	var b strings.Builder
	b.WriteString(e.E.SQL())
	if e.Not {
		b.WriteString(" not")
	}
	b.WriteString(" in (")
	if e.Sub != nil {
		b.WriteString(e.Sub.SQL())
	} else {
		for i, x := range e.List {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(x.SQL())
		}
	}
	b.WriteString(")")
	return b.String()
}

func (e *LikeExpr) SQL() string {
	op := " like "
	if e.Not {
		op = " not like "
	}
	return e.E.SQL() + op + e.Pattern.SQL()
}

func (e *IsNullExpr) SQL() string {
	if e.Not {
		return e.E.SQL() + " is not null"
	}
	return e.E.SQL() + " is null"
}

func (e *ExistsExpr) SQL() string {
	if e.Not {
		return "not exists (" + e.Sub.SQL() + ")"
	}
	return "exists (" + e.Sub.SQL() + ")"
}

func (e *SubqueryExpr) SQL() string { return "(" + e.Sub.SQL() + ")" }

func (e *CaseExpr) SQL() string {
	var b strings.Builder
	b.WriteString("case")
	for _, w := range e.Whens {
		b.WriteString(" when ")
		b.WriteString(w.Cond.SQL())
		b.WriteString(" then ")
		b.WriteString(w.Then.SQL())
	}
	if e.Else != nil {
		b.WriteString(" else ")
		b.WriteString(e.Else.SQL())
	}
	b.WriteString(" end")
	return b.String()
}

func (e *FuncExpr) SQL() string {
	if e.Star {
		return e.Name + "(*)"
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.SQL()
	}
	inner := strings.Join(args, ", ")
	if e.Distinct {
		inner = "distinct " + inner
	}
	return e.Name + "(" + inner + ")"
}

func (e *ExtractExpr) SQL() string {
	return "extract(" + e.Field + " from " + e.E.SQL() + ")"
}

func (e *NegExpr) SQL() string { return "-(" + e.E.SQL() + ")" }
