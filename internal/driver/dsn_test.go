package driver

import (
	"database/sql"
	"testing"

	"apuama/internal/cache"
)

func TestParseDSN(t *testing.T) {
	cases := []struct {
		dsn     string
		addr    string
		opt     cache.Control
		wantErr bool
	}{
		{dsn: "127.0.0.1:7654", addr: "127.0.0.1:7654"},
		{dsn: "host:1?nocache=1", addr: "host:1", opt: cache.Control{NoCache: true}},
		{dsn: "host:1?nocache=true", addr: "host:1", opt: cache.Control{NoCache: true}},
		{dsn: "host:1?nocache=0", addr: "host:1"},
		{dsn: "host:1?maxstale=8", addr: "host:1", opt: cache.Control{MaxStaleEpochs: 8}},
		{
			dsn: "host:1?nocache=1&maxstale=3", addr: "host:1",
			opt: cache.Control{NoCache: true, MaxStaleEpochs: 3},
		},
		// There is one transport: proto= went with the other one and
		// is an unknown parameter like any other.
		{dsn: "host:1?proto=binary", wantErr: true},
		{dsn: "host:1?proto=binary&nocache=1", wantErr: true},
		{dsn: "host:1?nocache=maybe", wantErr: true},
		{dsn: "host:1?maxstale=-2", wantErr: true},
		{dsn: "host:1?maxstale=soon", wantErr: true},
		{dsn: "host:1?frobnicate=1", wantErr: true},
		{dsn: "host:1?nocache=%zz", wantErr: true},
	}
	for _, tc := range cases {
		addr, opt, err := parseDSN(tc.dsn)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: expected error, got addr=%q opt=%+v", tc.dsn, addr, opt)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.dsn, err)
			continue
		}
		if addr != tc.addr || opt != tc.opt {
			t.Errorf("%q: got (%q, %+v), want (%q, %+v)", tc.dsn, addr, opt, tc.addr, tc.opt)
		}
	}
}

func TestDSNDirectivesStillQuery(t *testing.T) {
	// Directives in the DSN must not break ordinary querying against a
	// real cluster (the cluster here runs without a cache, so the bits
	// are honoured as no-ops).
	addr := startCluster(t)
	db, err := sql.Open("apuama", addr+"?nocache=1&maxstale=4")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var n int64
	if err := db.QueryRow("select count(*) from orders").Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1500 {
		t.Fatalf("count: %d", n)
	}
}

func TestDSNBadParamsFailOpen(t *testing.T) {
	db, err := sql.Open("apuama", "127.0.0.1:1?bogus=1")
	if err != nil {
		t.Fatal(err) // sql.Open is lazy; the error surfaces at first use
	}
	defer db.Close()
	if err := db.Ping(); err == nil {
		t.Fatal("bad DSN parameter should fail")
	}
}
