package tpch

import (
	"fmt"
	"math/rand"

	"apuama/internal/engine"
	"apuama/internal/sqltypes"
)

// Generator produces a deterministic TPC-H database at a scale factor.
// The same (SF, Seed) always yields the same rows, so replicas, reruns
// and tests agree on results.
//
// Skew > 1 makes the population key-skewed: orders in the lowest 10%% of
// the key domain carry Skew times the usual number of line items. TPC-H
// itself is uniform; the skewed variant exists to study virtual
// partitioning under the data skew the paper's §2 warns about ("physical
// data partitioning ... can cause severe data skew" — and static virtual
// ranges inherit the same problem).
type Generator struct {
	SF   float64
	Seed int64
	Skew float64
}

// Fixed domains from the TPC-H specification (the subsets our queries
// touch carry the exact spec values so selectivities are faithful).
var (
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

	// nation name -> region index, per the spec's nation table.
	nations = []struct {
		name   string
		region int
	}{
		{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
		{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
		{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
		{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
		{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
		{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3},
		{"UNITED KINGDOM", 3}, {"UNITED STATES", 1},
	}

	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	shipModes  = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs  = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	containers = []string{"SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX", "WRAP JAR", "JUMBO PKG"}

	typeSyllable1 = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyllable2 = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyllable3 = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
)

// Date anchors (days since 1970-01-01).
var (
	startDate   = sqltypes.MustDate("1992-01-01").I
	endDate     = sqltypes.MustDate("1998-08-02").I
	currentDate = sqltypes.MustDate("1995-06-17").I
)

// Load creates the TPC-H schema in db, then bulk-loads generated data in
// primary-key order (so clustered indexes match physical layout, the
// property SVP needs), one storage.Relation.Append per table: the rows
// fill the same pages and slots one Insert per row would, and every index
// is built bottom-up from its sorted entries. It returns the loader node
// it used.
func (g Generator) Load(db *engine.Database) (*engine.Node, error) {
	if err := validateSF(g.SF); err != nil {
		return nil, err
	}
	loader := engine.NewNode(-1, db)
	for _, ddl := range DDL() {
		if _, err := loader.Exec(ddl); err != nil {
			return nil, fmt.Errorf("tpch ddl: %w", err)
		}
	}
	if err := g.populate(db); err != nil {
		return nil, err
	}
	return loader, nil
}

// populate bulk-loads every table (xmin 0: visible to every snapshot,
// like a database restored before the cluster starts): each table's rows
// are generated in primary-key order, then appended in one
// storage.Relation.Append, which builds the table's indexes bottom-up.
func (g Generator) populate(db *engine.Database) error {
	card := Cardinalities(g.SF)
	load := func(table string, rows []sqltypes.Row) error {
		rel, err := db.Relation(table)
		if err != nil {
			return err
		}
		if err := rel.Append(0, rows); err != nil {
			return fmt.Errorf("loading %s: %w", table, err)
		}
		return nil
	}
	bulk := func(table string, n int, gen func(r *rand.Rand, i int) sqltypes.Row) error {
		r := rand.New(rand.NewSource(g.Seed + int64(len(table))*7919))
		rows := make([]sqltypes.Row, n)
		for i := 1; i <= n; i++ {
			rows[i-1] = gen(r, i)
		}
		return load(table, rows)
	}

	if err := bulk("region", card["region"], func(r *rand.Rand, i int) sqltypes.Row {
		return sqltypes.Row{
			sqltypes.NewInt(int64(i - 1)),
			sqltypes.NewString(regions[i-1]),
			sqltypes.NewString(comment(r, 12)),
		}
	}); err != nil {
		return err
	}
	if err := bulk("nation", card["nation"], func(r *rand.Rand, i int) sqltypes.Row {
		n := nations[i-1]
		return sqltypes.Row{
			sqltypes.NewInt(int64(i - 1)),
			sqltypes.NewString(n.name),
			sqltypes.NewInt(int64(n.region)),
			sqltypes.NewString(comment(r, 12)),
		}
	}); err != nil {
		return err
	}
	nSupp := card["supplier"]
	if err := bulk("supplier", nSupp, func(r *rand.Rand, i int) sqltypes.Row {
		return sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("Supplier#%09d", i)),
			sqltypes.NewString(comment(r, 10)),
			sqltypes.NewInt(int64(r.Intn(25))),
			sqltypes.NewString(phone(r)),
			sqltypes.NewFloat(money(r, -999.99, 9999.99)),
			sqltypes.NewString(comment(r, 15)),
		}
	}); err != nil {
		return err
	}
	if err := bulk("customer", card["customer"], func(r *rand.Rand, i int) sqltypes.Row {
		return sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("Customer#%09d", i)),
			sqltypes.NewString(comment(r, 10)),
			sqltypes.NewInt(int64(r.Intn(25))),
			sqltypes.NewString(phone(r)),
			sqltypes.NewFloat(money(r, -999.99, 9999.99)),
			sqltypes.NewString(segments[r.Intn(len(segments))]),
			sqltypes.NewString(comment(r, 15)),
		}
	}); err != nil {
		return err
	}
	nPart := card["part"]
	if err := bulk("part", nPart, func(r *rand.Rand, i int) sqltypes.Row {
		ptype := typeSyllable1[r.Intn(6)] + " " + typeSyllable2[r.Intn(5)] + " " + typeSyllable3[r.Intn(5)]
		return sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("part %d", i)),
			sqltypes.NewString(fmt.Sprintf("Manufacturer#%d", r.Intn(5)+1)),
			sqltypes.NewString(fmt.Sprintf("Brand#%d%d", r.Intn(5)+1, r.Intn(5)+1)),
			sqltypes.NewString(ptype),
			sqltypes.NewInt(int64(r.Intn(50) + 1)),
			sqltypes.NewString(containers[r.Intn(len(containers))]),
			sqltypes.NewFloat(money(r, 900, 2000)),
			sqltypes.NewString(comment(r, 8)),
		}
	}); err != nil {
		return err
	}
	// partsupp is generated per part (composite-key order), four
	// suppliers each.
	psRand := rand.New(rand.NewSource(g.Seed + 101))
	psRows := make([]sqltypes.Row, 0, card["partsupp"])
	for p := 1; p <= nPart; p++ {
		for s := 0; s < 4; s++ {
			supp := (p+s*(nPart/4+1))%nSupp + 1
			psRows = append(psRows, sqltypes.Row{
				sqltypes.NewInt(int64(p)),
				sqltypes.NewInt(int64(supp)),
				sqltypes.NewInt(int64(psRand.Intn(9999) + 1)),
				sqltypes.NewFloat(money(psRand, 1, 1000)),
				sqltypes.NewString(comment(psRand, 10)),
			})
		}
	}
	if err := load("partsupp", psRows); err != nil {
		return err
	}

	// Orders and lineitem are generated together so line items derive
	// from their order (dates, status), in orderkey order.
	r := rand.New(rand.NewSource(g.Seed + 202))
	nOrders := card["orders"]
	nCust := card["customer"]
	oRows := make([]sqltypes.Row, 0, nOrders)
	lRows := make([]sqltypes.Row, 0, card["lineitem"])
	for o := 1; o <= nOrders; o++ {
		orow, lrows := g.makeOrder(r, int64(o), nCust, nPart, nSupp)
		oRows = append(oRows, orow)
		lRows = append(lRows, lrows...)
	}
	if err := load("orders", oRows); err != nil {
		return err
	}
	return load("lineitem", lRows)
}

// makeOrder builds one order row plus its line items, sharing the logic
// with RF1 refresh generation.
func (g Generator) makeOrder(r *rand.Rand, orderkey int64, nCust, nPart, nSupp int) (sqltypes.Row, []sqltypes.Row) {
	odate := startDate + int64(r.Intn(int(endDate-startDate-121)))
	nLines := r.Intn(7) + 1
	if g.Skew > 1 && orderkey <= g.MaxOrderKey()/10 {
		nLines = int(float64(nLines) * g.Skew)
	}
	var total float64
	lrows := make([]sqltypes.Row, 0, nLines)
	allF, allO := true, true
	for ln := 1; ln <= nLines; ln++ {
		qty := float64(r.Intn(50) + 1)
		price := money(r, 901, 104949)
		disc := float64(r.Intn(11)) / 100
		tax := float64(r.Intn(9)) / 100
		ship := odate + int64(r.Intn(121)+1)
		commit := odate + int64(r.Intn(61)+30)
		receipt := ship + int64(r.Intn(30)+1)
		retflag := "N"
		if receipt <= currentDate {
			if r.Intn(2) == 0 {
				retflag = "R"
			} else {
				retflag = "A"
			}
		}
		status := "O"
		if ship <= currentDate {
			status = "F"
			allO = false
		} else {
			allF = false
		}
		total += price * (1 + tax) * (1 - disc)
		lrows = append(lrows, sqltypes.Row{
			sqltypes.NewInt(orderkey),
			sqltypes.NewInt(int64(r.Intn(nPart) + 1)),
			sqltypes.NewInt(int64(r.Intn(nSupp) + 1)),
			sqltypes.NewInt(int64(ln)),
			sqltypes.NewFloat(qty),
			sqltypes.NewFloat(price),
			sqltypes.NewFloat(disc),
			sqltypes.NewFloat(tax),
			sqltypes.NewString(retflag),
			sqltypes.NewString(status),
			sqltypes.NewDate(ship),
			sqltypes.NewDate(commit),
			sqltypes.NewDate(receipt),
			sqltypes.NewString(instructs[r.Intn(len(instructs))]),
			sqltypes.NewString(shipModes[r.Intn(len(shipModes))]),
			sqltypes.NewString(comment(r, 10)),
		})
	}
	ostatus := "P"
	if allF {
		ostatus = "F"
	} else if allO {
		ostatus = "O"
	}
	orow := sqltypes.Row{
		sqltypes.NewInt(orderkey),
		sqltypes.NewInt(int64(r.Intn(nCust) + 1)),
		sqltypes.NewString(ostatus),
		sqltypes.NewFloat(total),
		sqltypes.NewDate(odate),
		sqltypes.NewString(priorities[r.Intn(len(priorities))]),
		sqltypes.NewString(fmt.Sprintf("Clerk#%09d", r.Intn(1000)+1)),
		sqltypes.NewInt(0),
		sqltypes.NewString(comment(r, 12)),
	}
	return orow, lrows
}

// comment emits a short synthetic text payload (see package comment).
var commentWords = []string{
	"carefully", "final", "deposits", "boost", "quickly", "ironic",
	"requests", "sleep", "furiously", "accounts", "among", "pending",
	"theodolites", "wake", "blithely", "express", "packages", "nag",
}

func comment(r *rand.Rand, words int) string {
	n := r.Intn(words/2+1) + words/2
	out := make([]byte, 0, n*8)
	for i := 0; i < n; i++ {
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, commentWords[r.Intn(len(commentWords))]...)
	}
	return string(out)
}

func phone(r *rand.Rand) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d", r.Intn(25)+10, r.Intn(1000), r.Intn(1000), r.Intn(10000))
}

func money(r *rand.Rand, lo, hi float64) float64 {
	cents := int64(lo*100) + r.Int63n(int64((hi-lo)*100)+1)
	return float64(cents) / 100
}

// MaxOrderKey returns the highest base order key for the scale factor
// (refresh streams insert above it).
func (g Generator) MaxOrderKey() int64 {
	return int64(Cardinalities(g.SF)["orders"])
}

// SizeReport summarizes heap pages per relation (used by EXPERIMENTS.md
// and cache calibration).
func SizeReport(db *engine.Database) map[string]int {
	out := map[string]int{}
	for _, name := range db.Relations() {
		rel, err := db.Relation(name)
		if err == nil {
			out[name] = rel.NumPages()
		}
	}
	return out
}
