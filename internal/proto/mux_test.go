package proto

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"apuama/internal/admission"
	"apuama/internal/cache"
)

// TestMuxConcurrentQueries runs 64 concurrent queries over ONE
// connection, a third of them cancelled mid-stream, and checks every
// surviving result is complete and correct. Run under -race this is the
// protocol's interleaving stress test.
func TestMuxConcurrentQueries(t *testing.T) {
	_, c, _ := startPair(t, Options{ChunkRows: 32})
	const workers = 64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := 100 + i*37
			ctx := context.Background()
			if i%3 == 0 {
				// Interleaved cancels: a third of the streams abort
				// after the first row.
				rows, err := c.QueryStreamContext(ctx, fmt.Sprintf("select rows %d", n), cache.Control{})
				if err != nil {
					errs <- fmt.Errorf("worker %d open: %w", i, err)
					return
				}
				if _, err := rows.Next(); err != nil {
					errs <- fmt.Errorf("worker %d first row: %w", i, err)
				}
				rows.Close()
				return
			}
			res, err := c.QueryContext(ctx, fmt.Sprintf("select rows %d", n), cache.Control{})
			if err != nil {
				errs <- fmt.Errorf("worker %d: %w", i, err)
				return
			}
			if len(res.Rows) != n {
				errs <- fmt.Errorf("worker %d: %d rows, want %d", i, len(res.Rows), n)
				return
			}
			// Spot-check content integrity under interleaving: rows
			// belong to THIS query's result, not another stream's.
			for j, row := range res.Rows {
				if row[0].I != int64(j*7) {
					errs <- fmt.Errorf("worker %d row %d: got %d", i, j, row[0].I)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMuxInterleavedExecAndPing mixes queries, execs and pings on one
// connection.
func TestMuxInterleavedExecAndPing(t *testing.T) {
	_, c, _ := startPair(t, Options{})
	var wg sync.WaitGroup
	errs := make(chan error, 48)
	for i := 0; i < 16; i++ {
		wg.Add(3)
		go func() {
			defer wg.Done()
			if _, err := c.Query("select rows 50"); err != nil {
				errs <- err
			}
		}()
		go func(i int) {
			defer wg.Done()
			if _, err := c.Exec(fmt.Sprintf("insert %d", i)); err != nil {
				errs <- err
			}
		}(i)
		go func() {
			defer wg.Done()
			if err := c.Ping(); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAdmissionErrorsSurviveBinaryFrames checks the typed admission
// error codes ride the binary trailer end-to-end: errors.Is matches the
// sentinel and the retry-after hint survives.
func TestAdmissionErrorsSurviveBinaryFrames(t *testing.T) {
	h := &fakeHandler{}
	h.queryErr = admission.Remote("overloaded", "cluster saturated: try later", 1500*time.Millisecond)
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	check := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("want shed error")
		}
		if !errors.Is(err, admission.ErrOverloaded) {
			t.Fatalf("not ErrOverloaded: %v", err)
		}
		if !admission.Retryable(err) {
			t.Fatalf("not retryable: %v", err)
		}
		if got := admission.RetryAfter(err); got != 1500*time.Millisecond {
			t.Fatalf("retry-after: %v", got)
		}
	}

	bc, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	_, qerr := bc.Query("select rows 1")
	check(t, qerr)
	// And through a stream open.
	_, serr := bc.QueryStreamContext(context.Background(), "select rows 1", cache.Control{})
	check(t, serr)
}

// TestServerCloseCancelsInflight: closing the server releases blocked
// queries instead of hanging Close.
func TestServerCloseCancelsInflight(t *testing.T) {
	h := &fakeHandler{block: make(chan struct{})}
	s, err := Serve("127.0.0.1:0", h, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Query("select rows 1")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("server Close hung on an in-flight query")
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("query should fail when the server dies")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client query hung after server close")
	}
	close(h.block)
}
