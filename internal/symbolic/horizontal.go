package symbolic

import (
	"fmt"
	"strings"

	"symmeter/internal/timeseries"
)

// SymbolPoint is one timestamped symbol.
type SymbolPoint struct {
	T int64
	S Symbol
}

// SymbolSeries is a symbolic time series Ĥ(S, L): the result of horizontal
// segmentation of a (usually vertically segmented) series with a lookup
// table. It retains the table so the series can be reconstructed, coarsened
// or re-expressed.
type SymbolSeries struct {
	Name   string
	Table  *Table
	Points []SymbolPoint
}

// Horizontal implements Definition 3 over a whole series: each measurement
// value is replaced by its symbol under the lookup table.
func Horizontal(s *timeseries.Series, table *Table) *SymbolSeries {
	pts := make([]SymbolPoint, s.Len())
	for i, p := range s.Points {
		pts[i] = SymbolPoint{T: p.T, S: table.Encode(p.V)}
	}
	return &SymbolSeries{Name: s.Name, Table: table, Points: pts}
}

// Len returns the number of symbols.
func (ss *SymbolSeries) Len() int { return len(ss.Points) }

// Symbols returns the symbols in order.
func (ss *SymbolSeries) Symbols() []Symbol {
	out := make([]Symbol, len(ss.Points))
	for i, p := range ss.Points {
		out[i] = p.S
	}
	return out
}

// Reconstruct maps each symbol back to its representative value, producing
// an approximate real-valued series (the aggregation-server view).
func (ss *SymbolSeries) Reconstruct() (*timeseries.Series, error) {
	pts := make([]timeseries.Point, len(ss.Points))
	for i, p := range ss.Points {
		v, err := ss.Table.Value(p.S)
		if err != nil {
			return nil, fmt.Errorf("symbolic: reconstruct point %d: %w", i, err)
		}
		pts[i] = timeseries.Point{T: p.T, V: v}
	}
	return &timeseries.Series{Name: ss.Name + "/reconstructed", Points: pts}, nil
}

// Coarsen converts the symbolic series to a smaller alphabet k2 by
// truncating symbols and deriving the coarse lookup table — the §4
// flexibility claim ("higher resolution symbols can easily be converted to
// lower resolution").
func (ss *SymbolSeries) Coarsen(k2 int) (*SymbolSeries, error) {
	t2, err := ss.Table.Coarsen(k2)
	if err != nil {
		return nil, err
	}
	pts := make([]SymbolPoint, len(ss.Points))
	for i, p := range ss.Points {
		s2, err := p.S.Coarsen(t2.Level())
		if err != nil {
			return nil, err
		}
		pts[i] = SymbolPoint{T: p.T, S: s2}
	}
	return &SymbolSeries{Name: ss.Name, Table: t2, Points: pts}, nil
}

// Strings returns the symbols as binary strings, the nominal-attribute view
// consumed by classifiers ("allow also algorithms which usually work on
// nominal and string to be run on top of smart meter data").
func (ss *SymbolSeries) Strings() []string {
	out := make([]string, len(ss.Points))
	for i, p := range ss.Points {
		out[i] = p.S.String()
	}
	return out
}

// String renders the symbol sequence, space-separated.
func (ss *SymbolSeries) String() string {
	return strings.Join(ss.Strings(), " ")
}
