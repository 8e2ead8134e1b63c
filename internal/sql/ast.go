// Package sql implements the SQL dialect understood by every node engine
// in the cluster and by the Apuama middleware. The dialect covers the
// TPC-H subset the paper evaluates (complex SELECTs with joins, grouping,
// correlated sub-queries) plus the DML and session statements the
// middleware needs (INSERT/DELETE/UPDATE, SET enable_seqscan, CREATE
// TABLE/INDEX).
//
// Every AST node renders back to SQL text via SQL(): the Apuama engine
// rewrites queries structurally and then ships plain SQL to the black-box
// node engines, exactly as the paper's middleware does over JDBC.
package sql

import (
	"strings"

	"apuama/internal/sqltypes"
)

// Statement is any parsed SQL statement.
type Statement interface {
	// SQL renders the statement back to parseable SQL text.
	SQL() string
	stmt()
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    *int64
}

// SelectItem is one projection: an expression with an optional alias, or
// a bare star.
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// TableRef names a table in the FROM clause with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// RefName returns the name the table is known by in the query scope.
func (t TableRef) RefName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// OrderItem is one ORDER BY key. Expr may be a ColumnRef naming an output
// alias; resolution happens in the binder.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// InsertStmt is INSERT INTO table [(cols)] VALUES (...), (...).
type InsertStmt struct {
	Table   string
	Columns []string
	Rows    [][]Expr
}

// DeleteStmt is DELETE FROM table [WHERE ...].
type DeleteStmt struct {
	Table string
	Where Expr
}

// UpdateStmt is UPDATE table SET col = expr, ... [WHERE ...].
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET clause of an UPDATE.
type Assignment struct {
	Column string
	Expr   Expr
}

// SetStmt is SET name = value (session settings such as enable_seqscan).
type SetStmt struct {
	Name  string
	Value sqltypes.Value
}

// CreateTableStmt declares a table.
type CreateTableStmt struct {
	Name       string
	Columns    []ColumnDef
	PrimaryKey []string
}

// ColumnDef is one column declaration.
type ColumnDef struct {
	Name string
	Type sqltypes.Kind
}

// CreateIndexStmt declares an index; Clustered marks the index that
// defines the physical row order (one per table).
type CreateIndexStmt struct {
	Name      string
	Table     string
	Columns   []string
	Clustered bool
}

// ExplainStmt asks for the execution plan of a SELECT instead of its
// result (EXPLAIN SELECT ...).
type ExplainStmt struct {
	Query *SelectStmt
}

func (*SelectStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}
func (*InsertStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*SetStmt) stmt()         {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}

// Expr is any scalar or boolean expression.
type Expr interface {
	SQL() string
	expr()
}

// ColumnRef references a column, optionally qualified by table or alias.
type ColumnRef struct {
	Table string
	Name  string
}

// Literal is a constant value.
type Literal struct {
	Val sqltypes.Value
}

// Placeholder is the N-th argument of a prepared statement, written $N
// (1-based, as in PostgreSQL). The statement is planned with its
// arguments supplied beside it, so one parsed statement serves every
// argument vector.
type Placeholder struct {
	N int
}

// BinaryExpr is arithmetic: + - * /.
type BinaryExpr struct {
	Op   byte
	L, R Expr
}

// CompareExpr is a comparison: Op one of "=", "<>", "<", "<=", ">", ">=".
type CompareExpr struct {
	Op   string
	L, R Expr
}

// AndExpr is L AND R.
type AndExpr struct{ L, R Expr }

// OrExpr is L OR R.
type OrExpr struct{ L, R Expr }

// NotExpr is NOT E.
type NotExpr struct{ E Expr }

// BetweenExpr is E [NOT] BETWEEN Lo AND Hi.
type BetweenExpr struct {
	E, Lo, Hi Expr
	Not       bool
}

// InExpr is E [NOT] IN (list) or E [NOT] IN (subquery).
type InExpr struct {
	E    Expr
	List []Expr
	Sub  *SelectStmt
	Not  bool
}

// LikeExpr is E [NOT] LIKE pattern (pattern is a literal).
type LikeExpr struct {
	E       Expr
	Pattern Expr
	Not     bool
}

// IsNullExpr is E IS [NOT] NULL.
type IsNullExpr struct {
	E   Expr
	Not bool
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Sub *SelectStmt
	Not bool
}

// SubqueryExpr is a scalar sub-query.
type SubqueryExpr struct {
	Sub *SelectStmt
}

// CaseExpr is CASE WHEN cond THEN val ... [ELSE val] END.
type CaseExpr struct {
	Whens []When
	Else  Expr
}

// When is one WHEN arm of a CASE.
type When struct {
	Cond Expr
	Then Expr
}

// FuncExpr is a function call. Aggregates (sum, avg, count, min, max) are
// recognized by name; Star marks count(*).
type FuncExpr struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

// ExtractExpr is EXTRACT(field FROM expr) over dates; Field is "year",
// "month" or "day".
type ExtractExpr struct {
	Field string
	E     Expr
}

// NegExpr is unary minus.
type NegExpr struct{ E Expr }

func (*ColumnRef) expr()    {}
func (*Literal) expr()      {}
func (*Placeholder) expr()  {}
func (*BinaryExpr) expr()   {}
func (*CompareExpr) expr()  {}
func (*AndExpr) expr()      {}
func (*OrExpr) expr()       {}
func (*NotExpr) expr()      {}
func (*BetweenExpr) expr()  {}
func (*InExpr) expr()       {}
func (*LikeExpr) expr()     {}
func (*IsNullExpr) expr()   {}
func (*ExistsExpr) expr()   {}
func (*SubqueryExpr) expr() {}
func (*CaseExpr) expr()     {}
func (*FuncExpr) expr()     {}
func (*ExtractExpr) expr()  {}
func (*NegExpr) expr()      {}

// AggregateFuncs lists the aggregate function names the engine supports.
var AggregateFuncs = map[string]bool{
	"sum": true, "avg": true, "count": true, "min": true, "max": true,
}

// IsAggregate reports whether the function name is an aggregate.
func (f *FuncExpr) IsAggregate() bool { return AggregateFuncs[strings.ToLower(f.Name)] }
