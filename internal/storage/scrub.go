package storage

import (
	"errors"
	"sort"
	"sync"
	"time"
)

// Background integrity scrubber.
//
// A Scrubber walks the page file's cold pages on a configurable IO
// budget, verifying each page's CRC32C+LSN header without pulling it
// through the buffer pool (so the scan neither evicts hot pages nor
// hides disk rot behind the cache). Corrupt pages are healed in place
// from the latest committed WAL image — live log first, then the
// archive chain — and pages with no surviving image are reported as
// unhealed: the operator's cue to Repair or restore from backup, and
// gomd's /healthz degradation signal.
//
// Scrubbing is safe against concurrent writers: reads and heals go
// through the FileDisk latch, and HealPage re-verifies the corruption
// under that latch so a heal from an older image can never clobber a
// page a writer just rewrote.

// ScrubConfig tunes a Scrubber.
type ScrubConfig struct {
	// Interval is the pause between passes when running via Start.
	// Zero or negative means Start runs a single pass and stops.
	Interval time.Duration

	// PagesPerSecond caps the scan's IO rate. Zero or negative means
	// unthrottled.
	PagesPerSecond int

	// OnCorrupt, if set, is called for every corrupt page found, with
	// healed reporting whether an archived image repaired it in place.
	OnCorrupt func(id PageID, healed bool)
}

// ScrubResult summarizes one scrub pass.
type ScrubResult struct {
	Checked  int      // pages whose checksum was verified
	Found    []PageID // pages that failed verification this pass
	Healed   []PageID // subset of Found repaired from a logged image
	Unhealed []PageID // all currently known-bad pages (across passes)
}

// Scrubber periodically verifies every stored page of a FileDisk.
type Scrubber struct {
	fd  *FileDisk
	w   *WAL // heal source (live log + attached archive); may be nil
	cfg ScrubConfig

	mu       sync.Mutex
	unhealed map[PageID]bool
	passes   uint64

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewScrubber builds a scrubber over fd, healing from w's live records
// and its attached archive (w may be nil: corruption is then only
// found and reported, never healed).
func NewScrubber(fd *FileDisk, w *WAL, cfg ScrubConfig) *Scrubber {
	return &Scrubber{
		fd:       fd,
		w:        w,
		cfg:      cfg,
		unhealed: map[PageID]bool{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (s *Scrubber) runPass(cancel <-chan struct{}) (*ScrubResult, error) {
	res := &ScrubResult{}
	var images *imageLog // heal source, folded on the first corrupt page, dropped with the pass
	var perPage time.Duration
	if s.cfg.PagesPerSecond > 0 {
		perPage = time.Second / time.Duration(s.cfg.PagesPerSecond)
	}
	maxID := s.fd.MaxPageID()
	for id := PageID(1); id <= maxID; id++ {
		if cancel != nil {
			select {
			case <-cancel:
				return res, nil
			default:
			}
		}
		_, err := s.fd.PageLSN(id)
		res.Checked++
		telScrubChecked.Inc()
		switch {
		case err == nil:
			s.mu.Lock()
			delete(s.unhealed, id) // a writer fixed it since the last pass
			s.mu.Unlock()
		case errors.Is(err, ErrCorruptPage):
			res.Found = append(res.Found, id)
			telScrubFound.Inc()
			if images == nil {
				if images, err = s.healSource(); err != nil {
					return res, err
				}
			}
			healed := false
			if img, ok := images.latest[id]; ok {
				// HealPage re-checks the corruption under the disk latch.
				if healed, err = s.fd.HealPage(id, img.Data, img.LSN); err != nil {
					return res, err
				}
			}
			s.mu.Lock()
			if healed {
				res.Healed = append(res.Healed, id)
				delete(s.unhealed, id)
				telScrubHealed.Inc()
			} else {
				s.unhealed[id] = true
			}
			s.mu.Unlock()
			if s.cfg.OnCorrupt != nil {
				s.cfg.OnCorrupt(id, healed)
			}
		default:
			return res, err
		}
		if perPage > 0 {
			time.Sleep(perPage)
		}
	}
	s.mu.Lock()
	s.passes++
	s.mu.Unlock()
	res.Unhealed = s.Unhealed()
	telScrubUnhealed.Set(float64(len(res.Unhealed)))
	telScrubPasses.Inc()
	return res, nil
}

// healSource folds the archive chain and the live log, as one history,
// into the newest committed image of every page. A damaged or gapped
// archive degrades the heal (whatever replayed before the damage still
// counts), it does not fail the scrub. Without a WAL the source is empty:
// corruption is found and reported, never healed. The source is as old
// as the pass's first finding, so an image may predate a page a writer
// has rewritten since — HealPage leaves any page that reads clean alone.
func (s *Scrubber) healSource() (*imageLog, error) {
	if s.w == nil {
		return &imageLog{}, nil
	}
	recs, _, err := s.w.Records()
	if err != nil {
		return nil, err
	}
	images, err := foldImageLog(s.w.Archive(), recs, 0)
	if err != nil && !errors.Is(err, ErrArchiveCorrupt) && !errors.Is(err, ErrArchiveGap) {
		return nil, err
	}
	return images, nil
}

// Start launches the background loop: one pass now, then one every
// cfg.Interval. Stop terminates it. Start is idempotent.
func (s *Scrubber) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			for {
				if _, err := s.runPass(s.stop); err != nil {
					// Scrubbing is advisory: an IO error ends the pass,
					// not the process. The next tick retries.
					telScrubPassErrors.Inc()
				}
				if s.cfg.Interval <= 0 {
					return
				}
				select {
				case <-s.stop:
					return
				case <-time.After(s.cfg.Interval):
				}
			}
		}()
	})
}

// Stop halts the background loop and waits for it to exit. Calling
// Stop without Start is safe.
func (s *Scrubber) Stop() {
	s.startOnce.Do(func() { close(s.done) }) // never started: mark done
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Unhealed returns the pages currently known corrupt with no logged
// image to heal from, sorted.
func (s *Scrubber) Unhealed() []PageID {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PageID, 0, len(s.unhealed))
	for id := range s.unhealed {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
