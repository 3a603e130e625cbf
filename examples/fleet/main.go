// Fleet: a client for a running serve. It simulates a fleet of smart meters
// (internal/fleet) that each learn a lookup table from two days of
// synthetic history and stream their live days as sequenced, acknowledged
// symbol batches over their own pkg/client Session — the paper's §2
// deployment at fleet scale — then asks the server, through the pkg/client
// query protocol, for the fleet-wide aggregate over a time range.
//
//	go run ./cmd/serve -addr 127.0.0.1:7701 &
//	go run ./examples/fleet -addr 127.0.0.1:7701                # 4 meters, 1 day each
//	go run ./examples/fleet -addr 127.0.0.1:7701 -meters 64 -days 3
//	go run ./examples/fleet -addr 127.0.0.1:7701 -seconds 3600  # first hour of each day only
//	go run ./examples/fleet -addr 127.0.0.1:7701 -relearn       # daily table re-learning
//	go run ./examples/fleet -addr 127.0.0.1:7701 -hist -qfrom 172800 -qto 216000
//
// Each meter reports its reconstruction MAE, computed at the sensor from
// the true window averages and its table's reconstruction values. The run
// fails unless the server's fleet count grew by exactly the symbols the
// meters had acked, so it assumes no other client writes meanwhile; the
// count may start above zero, as it does on a server that recovered history
// from its data directory.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"symmeter/internal/fleet"
	"symmeter/pkg/client"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleet", flag.ContinueOnError)
	var (
		addr    = fs.String("addr", "", "address of a running serve (its -addr)")
		meters  = fs.Int("meters", 4, "number of concurrent simulated meters")
		days    = fs.Int("days", 1, "days of live data each meter streams after its 2 training days")
		seconds = fs.Int64("seconds", 0, "cap each day to its first N seconds (0 = whole day)")
		seed    = fs.Int64("seed", 1, "dataset seed (meter i uses seed+i)")
		k       = fs.Int("k", 16, "alphabet size")
		window  = fs.Int64("window", 900, "vertical window seconds")
		relearn = fs.Bool("relearn", false, "rebuild and resend each meter's table daily (adaptive path)")
		qfrom   = fs.Int64("qfrom", 0, "query range start (seconds since the stream epoch)")
		qto     = fs.Int64("qto", 0, "query range end, exclusive (0 = unbounded)")
		hist    = fs.Bool("hist", false, "also print the fleet-wide symbol histogram for the query range")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *addr == "" {
		return errors.New("-addr is required: the address of a running serve")
	}

	before, err := fleetCount(*addr)
	if err != nil {
		return err
	}
	start := time.Now()
	rep, err := fleet.Run(*addr, fleet.Config{
		Meters:        *meters,
		Days:          *days,
		SecondsPerDay: *seconds,
		Window:        *window,
		K:             *k,
		Seed:          *seed,
		RelearnPerDay: *relearn,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	const maxLines = 16
	acked, failed := 0, 0
	for i, m := range rep.Meters {
		acked += m.Acked
		if m.Err != nil {
			failed++
		}
		switch {
		case i >= maxLines && len(rep.Meters) > maxLines+1:
		case m.Err != nil:
			fmt.Fprintf(out, "  meter %4d: FAILED: %v\n", m.MeterID, m.Err)
		default:
			fmt.Fprintf(out, "  meter %4d: %d raw -> %d symbols, MAE %.1f W\n", m.MeterID, m.Sent, m.Acked, m.MAE)
		}
	}
	if n := len(rep.Meters); n > maxLines+1 {
		fmt.Fprintf(out, "  ... %d more meters\n", n-maxLines)
	}
	fmt.Fprintf(out, "fleet: %d meters sent %d raw measurements -> %d symbols acked in %v (%.0f symbols/sec)\n",
		len(rep.Meters), rep.Sent, acked, elapsed.Round(time.Millisecond), float64(acked)/elapsed.Seconds())
	if failed > 0 {
		return fmt.Errorf("%d of %d meters failed", failed, len(rep.Meters))
	}

	// Every acked batch is committed exactly once, so the fleet count must
	// have grown by exactly the acked symbols.
	after, err := fleetCount(*addr)
	if err != nil {
		return err
	}
	if after-before != uint64(acked) {
		return fmt.Errorf("server fleet count went from %d to %d, but the meters acked %d symbols", before, after, acked)
	}
	fmt.Fprintf(out, "check: server fleet count %d -> %d, exactly the %d symbols acked\n", before, after, acked)

	t0, t1 := *qfrom, *qto
	if t1 <= 0 {
		// Unbounded: only a point at exactly MaxInt64 is unreachable by a
		// half-open range.
		t1 = math.MaxInt64
	}
	c, err := client.Dial(*addr)
	if err != nil {
		return err
	}
	defer c.Close()
	qstart := time.Now()
	agg, err := c.FleetAggregate(t0, t1)
	if err != nil {
		return err
	}
	qelapsed := time.Since(qstart)
	if agg.Count > 0 {
		fmt.Fprintf(out, "query: fleet mean %.1f W, min %.1f W, max %.1f W over [%d,%d) — %d points in %v, compressed-domain, via pkg/client\n",
			agg.Mean(), agg.Min, agg.Max, t0, t1, agg.Count, qelapsed.Round(time.Microsecond))
	} else {
		fmt.Fprintf(out, "query: no points in [%d,%d) (%v, compressed-domain, via pkg/client)\n", t0, t1, qelapsed.Round(time.Microsecond))
	}
	if *hist {
		h, err := c.FleetHistogram(t0, t1)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "query: histogram (level %d): %v\n", h.Level, h.Counts)
	}
	return nil
}

// fleetCount asks the server for its fleet-wide point count over all time,
// on a connection of its own: a query connection left idle while the fleet
// streams could outlive the server's idle timeout.
func fleetCount(addr string) (uint64, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	a, err := c.FleetAggregate(math.MinInt64, math.MaxInt64)
	return a.Count, err
}
