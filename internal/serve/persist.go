package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/jobkey"
)

// DiskStore persists cached result bodies across process restarts, keyed
// by the same jobkey content addresses as the in-memory LRU. Because the
// key is a content address of the *job* and every simulation is
// bit-deterministic, a restarted daemon that loads an entry from disk
// serves exactly the bytes the previous process computed — the warm path
// survives the process.
//
// Entry format (version diskFormatVersion): one file per key named
// <key>.res, a single header line
//
//	stonnedcache <version> <sha256-of-body> <body-length>\n
//
// followed by the raw body bytes. Writes go to a temp file in the same
// directory and rename into place, so a crash mid-write never leaves a
// half-entry under the final name. A load accepts only the exact header
// the body would be saved under (magic, version, checksum and length); any
// mismatch (truncation, corruption, a future format bump) deletes the file
// and reads as a miss — the simulator silently recomputes, it never serves
// suspect bytes.
//
// Eviction is write-time FIFO: when a Save pushes the store past its
// entry bound, the oldest entries by modification time are removed.
// Unlike the memory LRU this does not track read recency — the disk tier
// is a restart-survival layer, not a working-set tracker.
type DiskStore struct {
	dir string
	max int

	mu      sync.Mutex
	entries int // guarded by mu

	hits, writes, corrupt, evictions, errors uint64 // guarded by mu
}

const (
	diskMagic         = "stonnedcache"
	diskFormatVersion = 1
	diskEntrySuffix   = ".res"

	// DefaultDiskEntries bounds the disk store when the configuration
	// does not.
	DefaultDiskEntries = 65536
)

// NewDiskStore opens (creating if needed) the persistent store rooted at
// dir, bounded to maxEntries result files (<= 0 selects
// DefaultDiskEntries). The startup scan only counts entries; bodies load
// lazily on first Get.
func NewDiskStore(dir string, maxEntries int) (*DiskStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("disk store needs a directory")
	}
	if maxEntries <= 0 {
		maxEntries = DefaultDiskEntries
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("disk store: %w", err)
	}
	d := &DiskStore{dir: dir, max: maxEntries}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("disk store: %w", err)
	}
	for _, e := range names {
		if !e.IsDir() && strings.HasSuffix(e.Name(), diskEntrySuffix) {
			//lint:ignore mutexheld construction-time scan; the store has not escaped yet
			d.entries++
		}
	}
	return d, nil
}

// validKey reports whether k is a well-formed content address (64 hex
// chars) — the only strings the store will use as file names.
func validKey(k jobkey.Key) bool {
	if len(k) != 64 {
		return false
	}
	for _, c := range k {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (d *DiskStore) path(k jobkey.Key) string {
	return filepath.Join(d.dir, string(k)+diskEntrySuffix)
}

// Save writes the entry for k unless one already exists (content
// addressing guarantees an existing file holds the same bytes). Errors
// are counted, not returned: persistence is best-effort and must never
// fail a request that already has its result.
func (d *DiskStore) Save(k jobkey.Key, body []byte) {
	if !validKey(k) {
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
		return
	}
	path := d.path(k)
	if _, err := os.Stat(path); err == nil {
		return // already persisted; identical by content addressing
	}
	tmp, err := os.CreateTemp(d.dir, ".tmp-*")
	if err != nil {
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
		return
	}
	_, werr := tmp.Write(encodeEntry(body))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
		return
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		d.mu.Lock()
		d.errors++
		d.mu.Unlock()
		return
	}
	d.mu.Lock()
	d.entries++
	d.writes++
	over := d.entries - d.max
	d.mu.Unlock()
	if over > 0 {
		d.evictOldest(over)
	}
}

// Load reads the entry for k, verifying format and checksum. A malformed,
// truncated or corrupted entry is deleted and reported as a miss.
func (d *DiskStore) Load(k jobkey.Key) ([]byte, bool) {
	if !validKey(k) {
		return nil, false
	}
	raw, err := os.ReadFile(d.path(k))
	if err != nil {
		return nil, false
	}
	body, ok := parseEntry(raw)
	if !ok {
		d.discard(k)
		return nil, false
	}
	d.mu.Lock()
	d.hits++
	d.mu.Unlock()
	return body, true
}

// encodeEntry frames body as the bytes of its entry file.
func encodeEntry(body []byte) []byte {
	return append(entryHeader(body), body...)
}

// entryHeader is the header line body is saved under.
func entryHeader(body []byte) []byte {
	return fmt.Appendf(nil, "%s %d %s %d\n", diskMagic, diskFormatVersion, bodySum(body), len(body))
}

// parseEntry returns the body of one entry file's bytes, which must be
// exactly what encodeEntry makes of that body.
func parseEntry(raw []byte) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	body := raw[nl+1:]
	if !bytes.Equal(raw[:nl+1], entryHeader(body)) {
		return nil, false
	}
	return body, true
}

// discard removes a corrupt entry and counts it.
func (d *DiskStore) discard(k jobkey.Key) {
	err := os.Remove(d.path(k))
	d.mu.Lock()
	d.corrupt++
	if err == nil {
		d.entries--
	}
	d.mu.Unlock()
}

// evictOldest removes the n oldest entries by modification time.
func (d *DiskStore) evictOldest(n int) {
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		mod  int64
	}
	var all []aged
	for _, e := range names {
		if e.IsDir() || !strings.HasSuffix(e.Name(), diskEntrySuffix) {
			continue
		}
		info, ierr := e.Info()
		if ierr != nil {
			continue
		}
		all = append(all, aged{e.Name(), info.ModTime().UnixNano()})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].mod != all[j].mod {
			return all[i].mod < all[j].mod
		}
		return all[i].name < all[j].name
	})
	if n > len(all) {
		n = len(all)
	}
	removed := 0
	for _, a := range all[:n] {
		if os.Remove(filepath.Join(d.dir, a.name)) == nil {
			removed++
		}
	}
	d.mu.Lock()
	d.entries -= removed
	d.evictions += uint64(removed)
	d.mu.Unlock()
}

// DiskStats is the persistent tier's observable state.
type DiskStats struct {
	Dir       string `json:"dir"`
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
	Hits      uint64 `json:"hits"`
	Writes    uint64 `json:"writes"`
	Corrupt   uint64 `json:"corrupt"`
	Evictions uint64 `json:"evictions"`
	Errors    uint64 `json:"errors"`
}

// Stats snapshots the counters.
func (d *DiskStore) Stats() DiskStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return DiskStats{
		Dir:       d.dir,
		Entries:   d.entries,
		Capacity:  d.max,
		Hits:      d.hits,
		Writes:    d.writes,
		Corrupt:   d.corrupt,
		Evictions: d.evictions,
		Errors:    d.errors,
	}
}

func bodySum(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}
