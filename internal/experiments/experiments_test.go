package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// fastConfig keeps test runs to a few seconds: tiny data, two node
// counts, no real sleeping (virtual accounting only).
func fastConfig() Config {
	cfg := Default()
	cfg.SF = 0.001
	cfg.Nodes = []int{1, 2}
	cfg.Repeats = 2
	cfg.ReadStreams = 2
	cfg.UpdateOrders = 4
	cfg.Cost.RealSleep = false
	return cfg
}

func checkFigure(t *testing.T, fig *Figure, wantSeries int) {
	t.Helper()
	if len(fig.Nodes) == 0 || len(fig.Series) != wantSeries {
		t.Fatalf("%s: shape %v/%v", fig.ID, fig.Nodes, fig.Series)
	}
	for r := range fig.Nodes {
		if len(fig.Values[r]) != wantSeries {
			t.Fatalf("%s: row %d width", fig.ID, r)
		}
		for c, v := range fig.Values[r] {
			if v < 0 {
				t.Errorf("%s: negative value at (%d,%d)", fig.ID, r, c)
			}
		}
	}
}

func TestFig2(t *testing.T) {
	var buf bytes.Buffer
	fig, err := Fig2(fastConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 8)
	for c := range fig.Series {
		if fig.Values[0][c] <= 0 {
			t.Errorf("%s 1-node time is zero", fig.Series[c])
		}
	}
	norm := fig.Normalized()
	for c := range norm.Series {
		if norm.Values[0][c] != 1 {
			t.Errorf("normalized base not 1: %v", norm.Values[0])
		}
	}
	if !strings.Contains(buf.String(), "fig2 n=1") {
		t.Error("no progress output")
	}
	var out bytes.Buffer
	fig.Fprint(&out)
	if !strings.Contains(out.String(), "Q21") {
		t.Errorf("print: %s", out.String())
	}
}

func TestFig3a(t *testing.T) {
	fig, err := Fig3a(fastConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	if fig.Values[0][0] <= 0 {
		t.Error("zero throughput")
	}
	// Linear reference doubles from 1 to 2 nodes.
	if fig.Values[1][1] != 2*fig.Values[0][1] {
		t.Errorf("linear reference: %v", fig.Values)
	}
}

func TestFig3b(t *testing.T) {
	fig, err := Fig3b(fastConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	if fig.Values[0][1] != fig.Values[1][1] {
		t.Error("scale-up ideal should be flat")
	}
}

func TestFig4aAnd4b(t *testing.T) {
	fig, err := Fig4a(fastConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
	fig, err = Fig4b(fastConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 2)
}

func TestAblations(t *testing.T) {
	cfg := fastConfig()
	cfg.Nodes = []int{2}
	figs, err := Ablations(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 {
		t.Fatalf("ablations: %d figures", len(figs))
	}
	for _, fig := range figs {
		for r := range fig.Nodes {
			for c, v := range fig.Values[r] {
				if v <= 0 {
					t.Errorf("%s (%d,%d) = %v", fig.ID, r, c, v)
				}
			}
		}
	}
}

func TestBaselineFlagDisablesSVP(t *testing.T) {
	cfg := fastConfig()
	cfg.Engine.DisableSVP = true
	cfg.Nodes = []int{2}
	s, err := buildStack(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query("select count(*) from lineitem"); err != nil {
		t.Fatal(err)
	}
	if st := s.eng.Snapshot(); st.SVPQueries != 0 {
		t.Errorf("baseline ran SVP: %+v", st)
	}
}

func TestRefreshStatements(t *testing.T) {
	cfg := fastConfig()
	stmts := refreshStatements(cfg)
	if len(stmts) != cfg.UpdateOrders*4 {
		t.Errorf("refresh statements: %d", len(stmts))
	}
}

func TestConfigs(t *testing.T) {
	d := Default()
	if d.SF <= 0 || len(d.Nodes) == 0 || d.Repeats < 2 {
		t.Errorf("default: %+v", d)
	}
	q := Quick()
	if q.SF >= d.SF || len(q.Nodes) >= len(d.Nodes) {
		t.Errorf("quick should be smaller: %+v", q)
	}
	c := ExperimentCost()
	if !c.RealSleep || c.CachePages == 0 {
		t.Errorf("experiment cost: %+v", c)
	}
}

// TestOverloadExperiment smoke-runs the saturation study at test scale:
// the figure must have the three load rows, the at-capacity row must
// shed nothing, and overloaded rows must still have answered queries.
func TestOverloadExperiment(t *testing.T) {
	cfg := fastConfig()
	fig, err := OverloadExperiment(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkFigure(t, fig, 3)
	if fig.RowLabel != "xload" {
		t.Errorf("row label: %q", fig.RowLabel)
	}
	for r, m := range fig.Nodes {
		if fig.Values[r][0] <= 0 {
			t.Errorf("x%d: no goodput", m)
		}
		if fig.Values[r][1] < 0 || fig.Values[r][1] > 100 {
			t.Errorf("x%d: shed rate %v out of range", m, fig.Values[r][1])
		}
	}
}
