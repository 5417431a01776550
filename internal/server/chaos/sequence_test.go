package chaos

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"asr/internal/fault"
)

// The decision logs in TestFaultSequencesUnchanged were recorded from
// the network injector as it stood before its schedule moved onto one
// shared package with the disk injector's; they pin that the move
// changed no decision. Only the constructor below may follow a
// constructor change.

func seqInjector(seed int64, p Probabilities) *Injector { return NewInjector(fault.New(seed), p) }

// sink is an in-memory connection end that accepts every read and
// write, so a decision log depends on the injector alone.
type sink struct{}

func (sink) Read(p []byte) (int, error)       { return len(p), nil }
func (sink) Write(p []byte) (int, error)      { return len(p), nil }
func (sink) Close() error                     { return nil }
func (sink) LocalAddr() net.Addr              { return sinkAddr{} }
func (sink) RemoteAddr() net.Addr             { return sinkAddr{} }
func (sink) SetDeadline(time.Time) error      { return nil }
func (sink) SetReadDeadline(time.Time) error  { return nil }
func (sink) SetWriteDeadline(time.Time) error { return nil }

type sinkAddr struct{}

func (sinkAddr) Network() string { return "sink" }
func (sinkAddr) String() string  { return "sink" }

// sinkListener hands out sinks and counts the accepts it served.
type sinkListener struct{ accepts int }

func (l *sinkListener) Accept() (net.Conn, error) { l.accepts++; return sink{}, nil }
func (l *sinkListener) Close() error              { return nil }
func (l *sinkListener) Addr() net.Addr            { return sinkAddr{} }

// netDecisions drives a fixed stream of n operations through in — op i
// is an accept when i%5 == 0, a write of 10000 bytes when i%5 is 1 or
// 3, a read otherwise — and logs each fault as "<op index><a|w|r>
// <kind>": an accept logs how many connections it refused first, a
// torn write the bytes it delivered.
func netDecisions(in *Injector, n int) string {
	ln := &sinkListener{}
	wl, c := in.Listener(ln), in.Conn(sink{})
	payload := make([]byte, 10000)
	var log []string
	for i := 0; i < n; i++ {
		before := in.Stats()
		var (
			op  string
			got int
			err error
		)
		switch i % 5 {
		case 0:
			op, ln.accepts = "a", 0
			_, err = wl.Accept()
			got = ln.accepts - 1
		case 1, 3:
			op = "w"
			got, err = c.Write(payload)
		default:
			op = "r"
			_, err = c.Read(payload[:16])
		}
		if err != nil && !errors.Is(err, ErrInjected) {
			return fmt.Sprintf("op %d: unexpected error %v", i, err)
		}
		after := in.Stats()
		switch {
		case after.Refusals > before.Refusals:
			log = append(log, fmt.Sprintf("%d%s refuse/%d", i, op, got))
		case after.TornWrites > before.TornWrites:
			log = append(log, fmt.Sprintf("%d%s torn/%d", i, op, got))
		case after.Resets > before.Resets:
			log = append(log, fmt.Sprintf("%d%s reset", i, op))
		case after.Stalls > before.Stalls:
			log = append(log, fmt.Sprintf("%d%s stall", i, op))
		}
	}
	return strings.Join(log, " ")
}

// everyWrite is the decision log of a stream whose every write resets.
const everyWrite = "1w reset 3w reset 6w reset 8w reset 11w reset 13w reset 16w reset 18w reset 21w reset 23w reset 26w reset 28w reset 31w reset 33w reset 36w reset 38w reset 41w reset 43w reset 46w reset 48w reset 51w reset 53w reset 56w reset 58w reset 61w reset 63w reset 66w reset 68w reset 71w reset 73w reset 76w reset 78w reset 81w reset 83w reset 86w reset 88w reset 91w reset 93w reset 96w reset 98w reset 101w reset 103w reset 106w reset 108w reset 111w reset 113w reset 116w reset 118w reset 121w reset 123w reset 126w reset 128w reset 131w reset 133w reset 136w reset 138w reset 141w reset 143w reset 146w reset 148w reset"

// TestFaultSequencesUnchanged pins the network injector's fault
// decisions for every seed and configuration the tests use (the disk
// injector's and the crashpoint's are pinned in package storage).
func TestFaultSequencesUnchanged(t *testing.T) {
	saturation := func(scale float64) Probabilities {
		return Probabilities{
			AcceptRefuse: 0.02 * scale,
			ResetOnRead:  0.01 * scale,
			ResetOnWrite: 0.01 * scale,
			TornWrite:    0.005 * scale,
			StallRead:    0.005 * scale,
			StallWrite:   0.005 * scale,
		}
	}
	deterministic := []Fault{
		{Op: OpWrite, Kind: Reset, Skip: 2},
		{Op: OpWrite, Kind: Reset, Skip: 9},
		{Op: OpWrite, Kind: Reset, Skip: 17},
		{Op: OpWrite, Kind: Reset, Skip: 25},
		{Op: OpRead, Kind: Reset, Skip: 30},
		{Op: OpWrite, Kind: Torn, Skip: 12, TornFraction: 0.3},
	}
	type netCase struct {
		name   string
		seed   int64
		probs  Probabilities
		faults []Fault
	}
	var cases []netCase
	for _, seed := range []int64{1, 7, 99} {
		for _, p := range []float64{0.05, 0.3, 1} {
			cases = append(cases, netCase{fmt.Sprintf("seed %d reset-on-write %v", seed, p), seed, Probabilities{ResetOnWrite: p}, nil})
		}
		for _, scale := range []float64{1, 4} {
			cases = append(cases, netCase{fmt.Sprintf("seed %d saturation x%v", seed, scale), seed, saturation(scale), nil})
		}
	}
	cases = append(cases,
		netCase{"deterministic schedule", 99, Probabilities{}, deterministic},
		netCase{"scheduled kinds", 1, Probabilities{}, []Fault{
			{Op: OpWrite, Kind: Reset, Skip: 1},
			{Op: OpWrite, Kind: Torn, TornFraction: 0.5},
			{Op: OpAccept, Kind: Refuse},
			{Op: OpRead, Kind: Stall},
		}},
		netCase{"scheduled kinds beside draws", 7, Probabilities{ResetOnWrite: 0.05}, []Fault{
			{Op: OpWrite, Kind: Reset, Skip: 1},
			{Op: OpWrite, Kind: Torn, Skip: 3, TornFraction: 0.5},
			{Op: OpRead, Kind: Reset, Skip: 4, Permanent: true},
		}},
	)
	want := map[string]string{
		"seed 1 reset-on-write 0.05":   "78w reset",
		"seed 1 reset-on-write 0.3":    "16w reset 18w reset 21w reset 31w reset 41w reset 43w reset 48w reset 51w reset 61w reset 63w reset 68w reset 78w reset 81w reset 88w reset 93w reset 101w reset 108w reset 116w reset 118w reset 128w reset 133w reset 138w reset 141w reset 146w reset",
		"seed 1 reset-on-write 1":      everyWrite,
		"seed 1 saturation x1":         "48w torn/7360 51w stall 52r reset 131w reset",
		"seed 1 saturation x4":         "14r reset 48w stall 52r reset 53w reset 83w stall 84r reset 97r reset 104r reset 108w reset 117r reset 127r reset 128w stall 133w reset 136w torn/8997",
		"seed 7 reset-on-write 0.05":   "21w reset 58w reset",
		"seed 7 reset-on-write 0.3":    "3w reset 6w reset 13w reset 21w reset 31w reset 36w reset 38w reset 48w reset 58w reset 91w reset 111w reset 113w reset 116w reset 123w reset 131w reset 148w reset",
		"seed 7 reset-on-write 1":      everyWrite,
		"seed 7 saturation x1":         "11w reset 73w torn/2811",
		"seed 7 saturation x4":         "11w reset 29r stall 61w reset 74r reset 99r reset 110a refuse/1 111w reset 135a refuse/1",
		"seed 99 reset-on-write 0.05":  "28w reset 58w reset 136w reset",
		"seed 99 reset-on-write 0.3":   "1w reset 21w reset 23w reset 28w reset 36w reset 48w reset 58w reset 61w reset 66w reset 73w reset 98w reset 101w reset 111w reset 121w reset 133w reset 136w reset 143w reset",
		"seed 99 reset-on-write 1":     everyWrite,
		"seed 99 saturation x1":        "5a refuse/1 24r reset 46w reset",
		"seed 99 saturation x4":        "5a refuse/1 10a refuse/1 23w stall 33w reset 46w reset 48w reset 75a refuse/1 92r reset 118w reset 131w stall",
		"deterministic schedule":       "6w reset 26w reset 36w torn/3000 48w reset 71w reset 77r reset",
		"scheduled kinds":              "0a refuse/1 1w torn/5000 2r stall 3w reset",
		"scheduled kinds beside draws": "3w reset 11w torn/5000 12r reset 14r reset 17r reset 19r reset 22r reset 24r reset 26w reset 27r reset 29r reset 32r reset 34r reset 37r reset 39r reset 42r reset 44r reset 47r reset 49r reset 52r reset 54r reset 57r reset 59r reset 62r reset 63w reset 64r reset 67r reset 69r reset 72r reset 74r reset 77r reset 79r reset 82r reset 84r reset 87r reset 89r reset 92r reset 94r reset 97r reset 99r reset 102r reset 104r reset 107r reset 109r reset 112r reset 114r reset 117r reset 119r reset 122r reset 124r reset 127r reset 129r reset 132r reset 134r reset 137r reset 139r reset 142r reset 144r reset 147r reset 149r reset",
	}
	for _, c := range cases {
		in := seqInjector(c.seed, c.probs)
		for _, f := range c.faults {
			in.Schedule(f)
		}
		if got := netDecisions(in, 150); got != want[c.name] {
			t.Errorf("%s: decisions\n got %q\nwant %q", c.name, got, want[c.name])
		}
	}
}
