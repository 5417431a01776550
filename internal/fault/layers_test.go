package fault_test

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"testing"

	"asr/internal/fault"
	"asr/internal/server/chaos"
	"asr/internal/storage"
)

// physWrites is the number of physical writes layersRun issues; the
// crash is scheduled on the last, which is also the run's last
// operation, so every operation is counted.
const physWrites = 25

// layersRun builds a FaultInjector, a Crashpoint and a chaos connection
// over one schedule seeded with seed and drives a fixed interleaving of
// disk writes, disk reads, physical writes and network writes through
// them. It returns the decision log — per operation, its index, the
// kind that fired (-1: none) and the error — the schedule's counters,
// and the operations issued per op.
func layersRun(t *testing.T, seed int64) (string, fault.Stats, map[fault.Op]uint64) {
	s := fault.New(seed)
	fi := storage.NewFaultInjector(storage.NewDisk(64), s)
	fi.FailProbabilistically(0.1, 0.2)
	fi.Schedule(storage.Fault{Op: storage.OpWrite, Skip: 4, TornFraction: 0.5})

	fd, err := storage.OpenFileDisk(filepath.Join(t.TempDir(), "pages"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	page, file := fi.Allocate(), fd.Allocate()
	cp := storage.NewCrashpoint(s, physWrites, 0.5)
	fd.SetCrashpoint(cp)

	in := chaos.NewInjector(s, chaos.Probabilities{ResetOnWrite: 0.1, TornWrite: 0.1, StallWrite: 0.1})
	dial := func() net.Conn {
		a, b := net.Pipe()
		go io.Copy(io.Discard, b)
		return in.Conn(a)
	}
	conn := dial()
	defer func() { conn.Close() }()

	issued := map[fault.Op]uint64{}
	buf := make([]byte, 64)
	var log []string
	for i := 0; i < 4*physWrites-1; i++ {
		before := s.Stats()
		var op fault.Op
		switch i % 4 {
		case 0:
			op, err = fault.DiskWrite, fi.Write(page, buf)
		case 1:
			op, err = fault.DiskRead, fi.Read(page, buf)
		case 2:
			op, err = fault.FileWrite, fd.Write(file, buf)
			if errors.Is(err, storage.ErrCrashed) {
				err = storage.ErrCrashed // drop the temporary file's path
			}
		case 3:
			op = fault.NetWrite
			if _, err = conn.Write(buf); err != nil {
				conn.Close()
				conn = dial()
			}
		}
		issued[op]++
		after, kind := s.Stats(), -1
		for k := range after.Fired {
			if after.Fired[k] != before.Fired[k] {
				kind = k
			}
		}
		log = append(log, fmt.Sprintf("%d %d %v", i, kind, err))
	}
	if !cp.Crashed() {
		t.Fatal("the crash scheduled on the last physical write never fired")
	}
	return strings.Join(log, "\n"), s.Stats(), issued
}

// TestOneSeedAcrossLayers: disk, crash and network faults drawn from one
// seeded schedule replay byte for byte, and the schedule counts every
// operation each layer issued.
func TestOneSeedAcrossLayers(t *testing.T) {
	a, st, issued := layersRun(t, 5)
	b, _, _ := layersRun(t, 5)
	if a != b {
		t.Fatalf("one seed, two decision logs:\n%s\n---\n%s", a, b)
	}
	for op, n := range issued {
		if st.Seen[op] != n {
			t.Fatalf("op %d: schedule saw %d operations, %d were issued", op, st.Seen[op], n)
		}
	}
	for _, k := range []fault.Kind{fault.Read, fault.Write, fault.TornPage, fault.Crash} {
		if st.Fired[k] == 0 {
			t.Fatalf("disk kind %d never fired (%v): the run does not interleave the layers", k, st.Fired)
		}
	}
	if st.Fired[fault.Reset]+st.Fired[fault.Torn]+st.Fired[fault.Stall] == 0 {
		t.Fatalf("no network fault fired (%v)", st.Fired)
	}
	if c, _, _ := layersRun(t, 6); c == a {
		t.Fatal("seeds 5 and 6 gave the same decision log")
	}
}
