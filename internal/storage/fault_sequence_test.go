package storage

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"asr/internal/fault"
)

// The decision logs in TestFaultSequencesUnchanged were recorded from
// the fault injectors as they stood before their schedules moved onto
// one shared package; they pin that the move changed no decision. Only
// the two constructors below may follow a constructor change.

func seqInjector(seed int64) (*FaultInjector, *Disk) {
	d := NewDisk(64)
	return NewFaultInjector(d, fault.New(seed)), d
}

func seqCrashpoint(at int64, torn float64) *Crashpoint { return NewCrashpoint(fault.New(0), at, torn) }

// diskDecisions drives a fixed stream of n operations through fi —
// alternating between two pages, every third operation a read — and
// logs each fault as "<op index><r|w|t>", a torn write ("t") followed
// by "/<bytes of the new page that reached the device>".
func diskDecisions(fi *FaultInjector, dev *Disk, n int) string {
	a, b := fi.Allocate(), fi.Allocate()
	buf, got := make([]byte, 64), make([]byte, 64)
	var log []string
	for i := 0; i < n; i++ {
		id := a
		if i%2 == 1 {
			id = b
		}
		before := fi.FaultStats()
		var err error
		if i%3 == 2 {
			err = fi.Read(id, buf)
		} else {
			for j := range buf {
				buf[j] = byte(i + 1)
			}
			err = fi.Write(id, buf)
		}
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrInjectedFault) {
			return fmt.Sprintf("op %d: unexpected error %v", i, err)
		}
		after := fi.FaultStats()
		switch {
		case after.TornWrites > before.TornWrites:
			_ = dev.Read(id, got)
			kept := 0
			for kept < len(got) && got[kept] == byte(i+1) {
				kept++
			}
			log = append(log, fmt.Sprintf("%dt/%d", i, kept))
		case after.WriteFaults > before.WriteFaults:
			log = append(log, fmt.Sprintf("%dw", i))
		default:
			log = append(log, fmt.Sprintf("%dr", i))
		}
	}
	return strings.Join(log, " ")
}

// crashDecisions admits 40 physical writes of 1001 bytes through cp and
// logs "<write the crash fired on>:<bytes it let through>:<Writes()>:
// <later writes refused>", or "-:0:<Writes()>:0" when it never fired.
func crashDecisions(cp *Crashpoint) string {
	fired, allowed, refused := -1, 0, 0
	for i := 1; i <= 40; i++ {
		n, err := cp.admit(1001)
		switch {
		case err == nil:
		case !errors.Is(err, ErrCrashed):
			return fmt.Sprintf("write %d: unexpected error %v", i, err)
		case fired < 0:
			fired, allowed = i, n
		default:
			refused++
		}
	}
	if fired < 0 {
		return fmt.Sprintf("-:0:%d:0", cp.Writes())
	}
	return fmt.Sprintf("%d:%d:%d:%d", fired, allowed, cp.Writes(), refused)
}

// everyWrite is the decision log of a stream whose every write faults.
const everyWrite = "0w 1w 3w 4w 6w 7w 9w 10w 12w 13w 15w 16w 18w 19w 21w 22w 24w 25w 27w 28w 30w 31w 33w 34w 36w 37w 39w 40w 42w 43w 45w 46w 48w 49w 51w 52w 54w 55w 57w 58w 60w 61w 63w 64w 66w 67w 69w 70w 72w 73w 75w 76w 78w 79w 81w 82w 84w 85w 87w 88w 90w 91w 93w 94w 96w 97w 99w 100w 102w 103w 105w 106w 108w 109w 111w 112w 114w 115w 117w 118w"

// TestFaultSequencesUnchanged pins the disk injector's and the
// crashpoint's fault decisions for every seed and configuration the
// tests use (the network injector's are pinned in package chaos).
func TestFaultSequencesUnchanged(t *testing.T) {
	type diskCase struct {
		name          string
		seed          int64
		pRead, pWrite float64
		faults        []Fault
		want          string
	}
	cases := []diskCase{
		{"seed 1 read 0 write 0.3", 1, 0, 0.3, nil,
			"9w 10w 12w 18w 24w 25w 28w 30w 36w 37w 40w 46w 48w 52w 55w 60w 64w 69w 70w 76w 79w 82w 84w 87w 96w 105w"},
		{"seed 3 read 0 write 0.3", 3, 0, 0.3, nil,
			"7w 37w 40w 45w 48w 57w 60w 63w 66w 67w 69w 73w 76w 85w 91w 99w 100w 103w 106w 109w 112w"},
		{"seed 4 read 0 write 0.3", 4, 0, 0.3, nil,
			"0w 1w 18w 19w 21w 27w 28w 30w 39w 43w 51w 57w 58w 60w 63w 70w 76w 79w 82w 88w 96w 99w 102w 109w 117w"},
		{"seed 7 read 0 write 0.3", 7, 0, 0.3, nil,
			"1w 3w 7w 12w 18w 21w 22w 28w 34w 54w 66w 67w 69w 73w 78w 88w 91w 94w 100w 103w 105w 109w 111w 117w"},
		{"seed 11 read 0 write 0.3", 11, 0, 0.3, nil,
			"0w 7w 15w 16w 22w 34w 39w 40w 48w 58w 60w 61w 63w 67w 73w 76w 79w 88w 96w 100w 103w 112w"},
		{"seed 31 read 0 write 0.3", 31, 0, 0.3, nil,
			"3w 9w 18w 19w 31w 36w 37w 39w 42w 48w 51w 61w 66w 72w 73w 79w 81w 82w 85w 88w 93w 96w 102w 103w 115w 118w"},
		{"seed 42 read 0 write 0.3", 42, 0, 0.3, nil,
			"1w 4w 6w 16w 19w 30w 33w 34w 37w 40w 43w 51w 57w 63w 64w 75w 76w 82w 85w 87w 88w 93w 96w 97w 105w 115w"},
		{"seed 1 read 0 write 0.5", 1, 0, 0.5, nil,
			"4w 6w 9w 10w 12w 13w 18w 19w 21w 22w 24w 25w 28w 30w 31w 36w 37w 40w 46w 48w 52w 55w 58w 60w 64w 66w 69w 70w 73w 76w 79w 82w 84w 87w 88w 96w 97w 105w 106w 111w"},
		{"seed 3 read 0 write 0.5", 3, 0, 0.5, nil,
			"7w 9w 12w 13w 15w 19w 22w 24w 27w 28w 37w 40w 45w 48w 57w 60w 63w 66w 67w 69w 73w 76w 81w 85w 91w 94w 99w 100w 102w 103w 106w 108w 109w 112w 114w"},
		{"seed 4 read 0 write 0.5", 4, 0, 0.5, nil,
			"0w 1w 3w 6w 7w 15w 18w 19w 21w 24w 25w 27w 28w 30w 34w 39w 40w 43w 46w 48w 51w 55w 57w 58w 60w 63w 66w 70w 72w 73w 76w 79w 82w 85w 88w 90w 91w 96w 97w 99w 102w 103w 109w 114w 115w 117w"},
		{"seed 7 read 0 write 0.5", 7, 0, 0.5, nil,
			"1w 3w 7w 9w 10w 12w 15w 16w 18w 21w 22w 28w 31w 34w 36w 39w 43w 46w 52w 54w 57w 58w 66w 67w 69w 73w 78w 79w 81w 88w 91w 94w 97w 100w 102w 103w 105w 109w 111w 115w 117w"},
		{"seed 11 read 0 write 0.5", 11, 0, 0.5, nil,
			"0w 7w 12w 13w 15w 16w 21w 22w 27w 34w 36w 37w 39w 40w 43w 48w 57w 58w 60w 61w 63w 67w 69w 70w 73w 76w 79w 88w 93w 96w 97w 100w 102w 103w 112w 118w"},
		{"seed 31 read 0 write 0.5", 31, 0, 0.5, nil,
			"0w 3w 4w 9w 13w 18w 19w 21w 24w 25w 30w 31w 36w 37w 39w 42w 45w 48w 51w 58w 61w 63w 64w 66w 72w 73w 79w 81w 82w 84w 85w 88w 93w 96w 97w 102w 103w 105w 109w 111w 114w 115w 118w"},
		{"seed 42 read 0 write 0.5", 42, 0, 0.5, nil,
			"0w 1w 4w 6w 7w 10w 12w 16w 18w 19w 22w 30w 31w 33w 34w 37w 40w 42w 43w 45w 51w 57w 63w 64w 75w 76w 82w 84w 85w 87w 88w 93w 96w 97w 99w 105w 108w 114w 115w 117w"},
		{"seed 1 read 0.08 write 0", 1, 0.08, 0, nil,
			"20r 95r 107r 113r"},
		{"seed 3 read 0.08 write 0", 3, 0.08, 0, nil,
			"77r"},
		{"seed 4 read 0.08 write 0", 4, 0.08, 0, nil,
			"59r 62r 89r 116r"},
		{"seed 7 read 0.08 write 0", 7, 0.08, 0, nil,
			"26r 71r"},
		{"seed 11 read 0.08 write 0", 11, 0.08, 0, nil,
			"32r 80r"},
		{"seed 31 read 0.08 write 0", 31, 0.08, 0, nil,
			"8r 104r"},
		{"seed 42 read 0.08 write 0", 42, 0.08, 0, nil,
			"5r 14r 77r 104r"},
		{"transient write on page 1, permanent read on page 1", 1, 0, 0, []Fault{{Op: OpWrite, Page: 1}, {Op: OpRead, Page: 1, Permanent: true}},
			"0w 2r 8r 14r 20r 26r 32r 38r 44r 50r 56r 62r 68r 74r 80r 86r 92r 98r 104r 110r 116r"},
		{"write after two skips", 1, 0, 0, []Fault{{Op: OpWrite, Skip: 2}},
			"3w"},
		{"read after three skips on page 2", 1, 0, 0, []Fault{{Op: OpRead, Page: 2, Skip: 3}},
			"23r"},
		{"torn half write on page 2", 1, 0, 0, []Fault{{Op: OpWrite, Page: 2, TornFraction: 0.5}},
			"1t/32"},
		{"permanent torn write after a skip", 1, 0, 0, []Fault{{Op: OpWrite, Skip: 1, Permanent: true, TornFraction: 0.25}},
			"1t/16 3t/16 4t/16 6t/16 7t/16 9t/16 10t/16 12t/16 13t/16 15t/16 16t/16 18t/16 19t/16 21t/16 22t/16 24t/16 25t/16 27t/16 28t/16 30t/16 31t/16 33t/16 34t/16 36t/16 37t/16 39t/16 40t/16 42t/16 43t/16 45t/16 46t/16 48t/16 49t/16 51t/16 52t/16 54t/16 55t/16 57t/16 58t/16 60t/16 61t/16 63t/16 64t/16 66t/16 67t/16 69t/16 70t/16 72t/16 73t/16 75t/16 76t/16 78t/16 79t/16 81t/16 82t/16 84t/16 85t/16 87t/16 88t/16 90t/16 91t/16 93t/16 94t/16 96t/16 97t/16 99t/16 100t/16 102t/16 103t/16 105t/16 106t/16 108t/16 109t/16 111t/16 112t/16 114t/16 115t/16 117t/16 118t/16"},
		{"permanent write", 1, 0, 0, []Fault{{Op: OpWrite, Permanent: true}},
			everyWrite},
		{"permanent write on page 2", 31, 0, 0, []Fault{{Op: OpWrite, Page: 2, Permanent: true}},
			"1w 3w 7w 9w 13w 15w 19w 21w 25w 27w 31w 33w 37w 39w 43w 45w 49w 51w 55w 57w 61w 63w 67w 69w 73w 75w 79w 81w 85w 87w 91w 93w 97w 99w 103w 105w 109w 111w 115w 117w"},
		{"transient write before draws", 7, 0, 0.3, []Fault{{Op: OpWrite}},
			"0w 3w 4w 9w 13w 19w 22w 24w 30w 36w 55w 67w 69w 70w 75w 79w 90w 93w 96w 102w 105w 106w 111w 112w 118w"},
		{"permanent write on page 1 beside draws", 4, 0.08, 0.5, []Fault{{Op: OpWrite, Page: 1, Permanent: true}},
			"0w 1w 3w 4w 6w 7w 10w 12w 15w 16w 18w 19w 21w 22w 24w 25w 27w 28w 29r 30w 31w 34w 36w 39w 40w 42w 44r 46w 48w 49w 51w 52w 54w 57w 58w 60w 61w 63w 64w 66w 67w 70w 71r 72w 73w 76w 78w 82w 84w 88w 90w 91w 94w 96w 97w 99w 100w 102w 103w 106w 108w 112w 114w 115w 117w 118w"},
	}
	for _, seed := range []int64{1, 3, 4, 7, 11, 31, 42} {
		cases = append(cases, diskCase{fmt.Sprintf("seed %d read 0 write 1", seed), seed, 0, 1, nil, everyWrite})
	}
	for _, c := range cases {
		fi, dev := seqInjector(c.seed)
		for _, f := range c.faults {
			fi.Schedule(f)
		}
		fi.FailProbabilistically(c.pRead, c.pWrite)
		if got := diskDecisions(fi, dev, 120); got != c.want {
			t.Errorf("%s: decisions\n got %q\nwant %q", c.name, got, c.want)
		}
	}

	wantCrash := map[float64]string{
		0:   "-:0:40:0 1:0:1:39 2:0:2:38 3:0:3:37 4:0:4:36 5:0:5:35 6:0:6:34 7:0:7:33 8:0:8:32 9:0:9:31 10:0:10:30 11:0:11:29 12:0:12:28 13:0:13:27 14:0:14:26 15:0:15:25 16:0:16:24 17:0:17:23 18:0:18:22 19:0:19:21 20:0:20:20 21:0:21:19 22:0:22:18 23:0:23:17 24:0:24:16 25:0:25:15 26:0:26:14 27:0:27:13 28:0:28:12 29:0:29:11 30:0:30:10 31:0:31:9 32:0:32:8 33:0:33:7 34:0:34:6 35:0:35:5 36:0:36:4",
		0.5: "-:0:40:0 1:500:1:39 2:500:2:38 3:500:3:37 4:500:4:36 5:500:5:35 6:500:6:34 7:500:7:33 8:500:8:32 9:500:9:31 10:500:10:30 11:500:11:29 12:500:12:28 13:500:13:27 14:500:14:26 15:500:15:25 16:500:16:24 17:500:17:23 18:500:18:22 19:500:19:21 20:500:20:20 21:500:21:19 22:500:22:18 23:500:23:17 24:500:24:16 25:500:25:15 26:500:26:14 27:500:27:13 28:500:28:12 29:500:29:11 30:500:30:10 31:500:31:9 32:500:32:8 33:500:33:7 34:500:34:6 35:500:35:5 36:500:36:4",
		1:   "-:0:40:0 1:1001:1:39 2:1001:2:38 3:1001:3:37 4:1001:4:36 5:1001:5:35 6:1001:6:34 7:1001:7:33 8:1001:8:32 9:1001:9:31 10:1001:10:30 11:1001:11:29 12:1001:12:28 13:1001:13:27 14:1001:14:26 15:1001:15:25 16:1001:16:24 17:1001:17:23 18:1001:18:22 19:1001:19:21 20:1001:20:20 21:1001:21:19 22:1001:22:18 23:1001:23:17 24:1001:24:16 25:1001:25:15 26:1001:26:14 27:1001:27:13 28:1001:28:12 29:1001:29:11 30:1001:30:10 31:1001:31:9 32:1001:32:8 33:1001:33:7 34:1001:34:6 35:1001:35:5 36:1001:36:4",
	}
	for _, torn := range []float64{0, 0.5, 1} {
		var log []string
		for at := int64(0); at <= 36; at++ {
			log = append(log, crashDecisions(seqCrashpoint(at, torn)))
		}
		if got := strings.Join(log, " "); got != wantCrash[torn] {
			t.Errorf("crashpoint torn=%v: decisions\n got %q\nwant %q", torn, got, wantCrash[torn])
		}
	}
}
