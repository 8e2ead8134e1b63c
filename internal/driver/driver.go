// Package driver registers an "apuama" database/sql driver speaking the
// wire protocol, so standard Go applications can use the cluster the way
// the paper's applications used C-JDBC through JDBC:
//
//	import _ "apuama/internal/driver"
//
//	db, err := sql.Open("apuama", "127.0.0.1:7654")
//	rows, err := db.Query("select count(*) from orders")
//
// The DSN accepts optional query parameters, applied to every statement
// on the connection:
//
//	sql.Open("apuama", "127.0.0.1:7654?nocache=1")     // bypass the result cache
//	sql.Open("apuama", "127.0.0.1:7654?maxstale=8")    // accept results ≤ 8 writes stale
//
// The dialect has no placeholder support; statements with bind arguments
// are rejected.
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"apuama/internal/cache"
	"apuama/internal/proto"
	"apuama/internal/sqltypes"
)

func init() {
	sql.Register("apuama", &Driver{})
}

// Driver implements driver.Driver.
type Driver struct{}

// Open dials a wire server; the DSN is its host:port, optionally
// followed by ?nocache=1 and/or ?maxstale=N.
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	addr, opt, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	c, err := proto.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, opt: opt}, nil
}

// parseDSN splits "host:port?k=v&..." into the dial address and the
// connection's cache directives.
func parseDSN(dsn string) (string, cache.Control, error) {
	var opt cache.Control
	addr, rawQuery, found := strings.Cut(dsn, "?")
	if !found {
		return addr, opt, nil
	}
	q, err := url.ParseQuery(rawQuery)
	if err != nil {
		return "", opt, fmt.Errorf("apuama: bad DSN parameters %q: %w", rawQuery, err)
	}
	for k, vs := range q {
		v := vs[len(vs)-1]
		switch k {
		case "nocache":
			on, err := strconv.ParseBool(v)
			if err != nil {
				return "", opt, fmt.Errorf("apuama: bad nocache value %q", v)
			}
			opt.NoCache = on
		case "maxstale":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				return "", opt, fmt.Errorf("apuama: bad maxstale value %q", v)
			}
			opt.MaxStaleEpochs = n
		default:
			return "", opt, fmt.Errorf("apuama: unknown DSN parameter %q", k)
		}
	}
	return addr, opt, nil
}

type conn struct {
	c   *proto.Client
	opt cache.Control
}

func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return &stmt{c: c.c, query: query, opt: c.opt}, nil
}

func (c *conn) Close() error { return c.c.Close() }

// Begin is unsupported: each statement autocommits, as in the paper's
// refresh streams.
func (c *conn) Begin() (driver.Tx, error) {
	return nil, errors.New("apuama: transactions are not supported (statements autocommit)")
}

// Ping lets database/sql verify connectivity.
func (c *conn) Ping() error { return c.c.Ping() }

type stmt struct {
	c     *proto.Client
	query string
	opt   cache.Control
}

func (s *stmt) Close() error { return nil }

// NumInput returns 0: the dialect has no placeholders.
func (s *stmt) NumInput() int { return 0 }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	if len(args) > 0 {
		return nil, errors.New("apuama: bind arguments are not supported")
	}
	n, err := s.c.Exec(s.query)
	if err != nil {
		return nil, err
	}
	return result{n: n}, nil
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, errors.New("apuama: bind arguments are not supported")
	}
	rd, err := s.c.QueryStreamContext(context.Background(), s.query, s.opt)
	if err != nil {
		return nil, err
	}
	return &rows{rd: rd}, nil
}

type result struct{ n int64 }

func (r result) LastInsertId() (int64, error) {
	return 0, errors.New("apuama: LastInsertId is not supported")
}
func (r result) RowsAffected() (int64, error) { return r.n, nil }

// rows adapts a wire cursor to driver.Rows: each Next decodes at most
// one batch frame from the socket, so large results stream instead of
// being materialized client-side. database/sql keeps the connection
// checked out until Close, which cancels the cursor and frees it.
type rows struct {
	rd *proto.Rows
}

func (r *rows) Columns() []string { return r.rd.Cols() }
func (r *rows) Close() error      { return r.rd.Close() }

func (r *rows) Next(dest []driver.Value) error {
	row, err := r.rd.Next()
	if err != nil {
		return err // io.EOF at end of stream
	}
	for i, v := range row {
		dv, err := toDriverValue(v)
		if err != nil {
			return err
		}
		dest[i] = dv
	}
	return nil
}

const secondsPerDay = 24 * 60 * 60

// toDriverValue maps engine values onto database/sql's value set.
func toDriverValue(v sqltypes.Value) (driver.Value, error) {
	switch v.K {
	case sqltypes.KindNull:
		return nil, nil
	case sqltypes.KindInt:
		return v.I, nil
	case sqltypes.KindFloat:
		return v.F, nil
	case sqltypes.KindString:
		return v.S, nil
	case sqltypes.KindBool:
		return v.I != 0, nil
	case sqltypes.KindDate:
		// Days since the epoch as seconds: the same instant AddDate would
		// reach, without normalising a calendar date per value.
		return time.Unix(v.I*secondsPerDay, 0).UTC(), nil
	default:
		return nil, fmt.Errorf("apuama: cannot convert %s value", v.K)
	}
}
