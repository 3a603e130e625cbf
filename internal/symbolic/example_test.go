package symbolic_test

import (
	"fmt"

	"symmeter/internal/symbolic"
	"symmeter/internal/timeseries"
)

// The basic pipeline: learn a table from history, encode a stream, recover
// approximate values.
func Example() {
	history := []float64{120, 130, 125, 2200, 2300, 140, 135, 2250}
	table, err := symbolic.Learn(symbolic.MethodMedian, history, 2)
	if err != nil {
		panic(err)
	}

	live := timeseries.FromValues("house", 0, 1, []float64{118, 2280, 131})
	encoded := symbolic.Horizontal(live, table)
	fmt.Println("symbols:", encoded.String())

	recon, err := encoded.Reconstruct()
	if err != nil {
		panic(err)
	}
	for _, p := range recon.Points {
		fmt.Printf("t=%d ≈ %.0f W\n", p.T, p.V)
	}
	// Output:
	// symbols: 0 1 0
	// t=0 ≈ 128 W
	// t=1 ≈ 1722 W
	// t=2 ≈ 128 W
}

// Symbols form a refinement hierarchy: coarsening keeps leading bits, and a
// coarse symbol covers all its refinements (the paper's partial order).
func ExampleSymbol_Coarsen() {
	s := symbolic.NewSymbol(5, 3)
	c, _ := s.Coarsen(1)
	fmt.Println(c)
	fmt.Println(c.Covers(s))
	// Output:
	// 1
	// true
}

// Online encoding emits one symbol per aggregation window as measurements
// stream in.
func ExampleEncoder() {
	table, _ := symbolic.Learn(symbolic.MethodUniform, []float64{0, 100, 200, 400}, 4)
	enc := symbolic.NewEncoder(table, 10) // 10-second windows

	for t := int64(0); t < 30; t++ {
		v := float64(t * 10) // rising load
		if sp, ok, _ := enc.Push(timeseries.Point{T: t, V: v}); ok {
			fmt.Printf("window ending %d -> %s\n", sp.T, sp.S)
		}
	}
	if sp, ok := enc.Flush(); ok {
		fmt.Printf("window ending %d -> %s\n", sp.T, sp.S)
	}
	// Output:
	// window ending 10 -> 00
	// window ending 20 -> 01
	// window ending 30 -> 10
}

// Compression per the paper's §2.3: a day of 1 Hz doubles versus 16 symbols
// every 15 minutes.
func ExampleCompression() {
	st, _ := symbolic.Compression(1, 900, 16)
	fmt.Printf("raw: %d bytes/day\n", st.RawBytes)
	fmt.Printf("symbols: %d bits/day\n", st.SymbolBits)
	fmt.Printf("ratio: %.0fx\n", st.Ratio)
	// Output:
	// raw: 691200 bytes/day
	// symbols: 384 bits/day
	// ratio: 14400x
}
