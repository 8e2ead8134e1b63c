// Command apuama-sql is an interactive SQL shell.
//
// It either dials a running apuamad (-addr) or spins up an in-process
// cluster (-local, with -nodes/-sf) and reads statements from stdin, one
// per line (a trailing backslash continues a statement on the next
// line). SELECTs print aligned tables; other statements print the
// affected-row count.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	apuama "apuama"
	"apuama/internal/engine"
	"apuama/internal/proto"
)

// session abstracts local vs remote execution.
type session interface {
	Query(sqlText string) (*engine.Result, error)
	Exec(sqlText string) (int64, error)
}

func main() {
	var (
		addr     = flag.String("addr", "", "apuamad address (empty with -local)")
		local    = flag.Bool("local", false, "run an in-process cluster instead of dialing")
		nodes    = flag.Int("nodes", 4, "nodes for -local")
		sf       = flag.Float64("sf", 0.01, "TPC-H scale factor for -local")
		columnar = flag.Bool("columnar", false, "enable the columnar segment store for -local")
	)
	flag.Parse()

	var sess session
	switch {
	case *local:
		cfg := apuama.Config{Nodes: *nodes, Columnar: *columnar}
		c, err := apuama.Open(cfg)
		if err != nil {
			log.Fatal(err)
		}
		if *sf > 0 {
			fmt.Fprintf(os.Stderr, "loading TPC-H at SF %g ...\n", *sf)
			if err := c.LoadTPCH(*sf, 1); err != nil {
				log.Fatal(err)
			}
		}
		sess = c
	case *addr != "":
		c, err := proto.Dial(*addr)
		if err != nil {
			log.Fatalf("apuama-sql: %v", err)
		}
		defer c.Close()
		sess = c
	default:
		log.Fatal("apuama-sql: pass -addr host:port or -local")
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Print("apuama> ")
		} else {
			fmt.Print("   ...> ")
		}
	}
	prompt()
	for in.Scan() {
		line := strings.TrimSpace(in.Text())
		if strings.HasSuffix(line, "\\") {
			pending.WriteString(strings.TrimSuffix(line, "\\"))
			pending.WriteByte(' ')
			prompt()
			continue
		}
		pending.WriteString(line)
		stmtText := strings.TrimSpace(pending.String())
		pending.Reset()
		if stmtText == "" {
			prompt()
			continue
		}
		if stmtText == "quit" || stmtText == "exit" || stmtText == `\q` {
			return
		}
		runStatement(sess, stmtText)
		prompt()
	}
}

func runStatement(sess session, stmtText string) {
	start := time.Now()
	lower := strings.ToLower(strings.TrimSpace(stmtText))
	if strings.HasPrefix(lower, "select") || strings.HasPrefix(lower, "explain") {
		res, err := sess.Query(stmtText)
		if err != nil {
			fmt.Printf("error: %v\n", err)
			return
		}
		fmt.Print(res.String())
		fmt.Printf("(%d rows, %v)\n", len(res.Rows), time.Since(start).Round(time.Millisecond))
		return
	}
	n, err := sess.Exec(stmtText)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	fmt.Printf("ok (%d rows affected, %v)\n", n, time.Since(start).Round(time.Millisecond))
}
