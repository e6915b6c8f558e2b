package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jobkey"
)

const testKeyA = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
const testKeyB = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb"
const testKeyC = "cccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccccc"

// TestDiskStoreRoundTrip is the restart contract: bytes saved by one
// store instance load byte-identically from a fresh instance over the
// same directory — the in-memory state is gone, the entry survives.
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := []byte(`{"result":"payload","n":42}`)
	d1.Save(testKeyA, body)
	if st := d1.Stats(); st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("after save: %+v", st)
	}

	// "Restart": a brand-new store over the same directory.
	d2, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := d2.Stats(); st.Entries != 1 {
		t.Fatalf("restart scan found %d entries, want 1", st.Entries)
	}
	got, ok := d2.Load(testKeyA)
	if !ok {
		t.Fatal("entry did not survive the restart")
	}
	if !bytes.Equal(got, body) {
		t.Fatalf("loaded %q, want %q", got, body)
	}
	if _, ok := d2.Load(testKeyB); ok {
		t.Error("missing key loaded")
	}
}

// TestDiskStoreCorruption: truncated bodies, flipped bytes, bad magic and
// an unknown format version must all read as a miss and delete the file —
// the cache recomputes, it never serves suspect bytes.
func TestDiskStoreCorruption(t *testing.T) {
	body := []byte("some result body bytes, long enough to truncate meaningfully")
	mutate := map[string]func(raw []byte) []byte{
		"truncated":   func(raw []byte) []byte { return raw[:len(raw)-7] },
		"flipped bit": func(raw []byte) []byte { raw[len(raw)-3] ^= 0x40; return raw },
		"bad magic":   func(raw []byte) []byte { return append([]byte("x"), raw[1:]...) },
		"future version": func(raw []byte) []byte {
			return bytes.Replace(raw, []byte(diskMagic+" 1 "), []byte(diskMagic+" 99 "), 1)
		},
		"no header": func([]byte) []byte { return []byte("junk with no newline") },
	}
	for name, fn := range mutate {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			d, err := NewDiskStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			d.Save(testKeyA, body)
			path := filepath.Join(dir, testKeyA+diskEntrySuffix)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := d.Load(testKeyA); ok {
				t.Fatal("corrupted entry served as a hit")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupted entry not deleted")
			}
			if st := d.Stats(); st.Corrupt != 1 {
				t.Errorf("corrupt counter %d, want 1", st.Corrupt)
			}
		})
	}
}

// TestDiskStoreEviction: the store bounds its entry count by evicting the
// oldest files.
func TestDiskStoreEviction(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	d.Save(testKeyA, []byte("a"))
	d.Save(testKeyB, []byte("b"))
	d.Save(testKeyC, []byte("c"))
	st := d.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after 3 saves into a 2-entry store: %+v", st)
	}
	if _, ok := d.Load(testKeyC); !ok {
		t.Error("newest entry evicted")
	}
}

// TestDiskStoreRejectsBadKeys: only well-formed content addresses become
// file names.
func TestDiskStoreRejectsBadKeys(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"", "short", "../../../../etc/passwd", strings.Repeat("Z", 64)} {
		d.Save(jobkey.Key(k), []byte("x"))
		if _, ok := d.Load(jobkey.Key(k)); ok {
			t.Errorf("bad key %q round-tripped", k)
		}
	}
	if st := d.Stats(); st.Entries != 0 {
		t.Errorf("bad keys created %d entries", st.Entries)
	}
}

// TestCacheDiskFallback: a memory miss falls back to the disk tier and
// promotes the entry, so a fresh Cache over a warm directory hits.
func TestCacheDiskFallback(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewCache(8)
	c1.SetDisk(d1)
	body := []byte("cached body")
	c1.Put(testKeyA, body)

	d2, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewCache(8)
	c2.SetDisk(d2)
	got, ok := c2.Get(testKeyA)
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("restarted cache: ok=%v body=%q", ok, got)
	}
	st := c2.Stats()
	if st.Disk == nil || st.Disk.Hits != 1 {
		t.Fatalf("disk stats after fallback: %+v", st.Disk)
	}
	if st.Entries != 1 {
		t.Error("disk hit was not promoted into the memory LRU")
	}
	// Second Get is a pure memory hit: disk hit counter stays put.
	if _, ok := c2.Get(testKeyA); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := c2.Stats(); st.Disk.Hits != 1 {
		t.Errorf("promotion did not stick: %d disk hits", st.Disk.Hits)
	}
}

// TestServerRestartServesWarm is the end-to-end persistence contract: a
// second server process (fresh Server over the same cache dir) serves the
// first server's job as a byte-identical warm hit without re-simulating.
func TestServerRestartServesWarm(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	resp1, raw1 := postJob(t, ts1, gemmBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %d %s", resp1.StatusCode, raw1)
	}
	var cold Envelope
	if err := json.Unmarshal(raw1, &cold); err != nil {
		t.Fatal(err)
	}
	if cold.Cached {
		t.Fatal("first run claims cached")
	}

	s2, ts2 := newTestServer(t, Config{Workers: 1, CacheDir: dir})
	_, raw2 := postJob(t, ts2, gemmBody)
	var warm Envelope
	if err := json.Unmarshal(raw2, &warm); err != nil {
		t.Fatal(err)
	}
	if !warm.Cached {
		t.Fatal("restarted server missed the persisted result")
	}
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Error("persisted result is not byte-identical to the cold run")
	}
	st := s2.Snapshot()
	if st.ColdRuns != 0 || st.WarmHits != 1 {
		t.Errorf("restarted server counters: cold=%d warm=%d", st.ColdRuns, st.WarmHits)
	}
}

// FuzzParseEntry feeds arbitrary bytes to the disk tier's entry parser. It
// must not panic; a body it accepts must carry its header's length and
// checksum; and an entry encoded from any body (an accepted one included)
// parses back to that body.
func FuzzParseEntry(f *testing.F) {
	f.Add(encodeEntry([]byte(`{"result":"payload","n":42}`)))
	f.Add(encodeEntry(nil))
	f.Add([]byte(diskMagic + " 1 00 3\nabc"))
	f.Add([]byte(diskMagic + "  1 x +3\nabc\n"))
	f.Add([]byte("junk with no newline"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		body, ok := parseEntry(raw)
		if ok {
			fields := strings.Fields(string(raw[:len(raw)-len(body)]))
			if len(fields) != 4 || fields[2] != bodySum(body) || fields[3] != strconv.Itoa(len(body)) {
				t.Fatalf("accepted a %d-byte body under header %q", len(body), fields)
			}
		} else {
			body = raw
		}
		if again, ok := parseEntry(encodeEntry(body)); !ok || !bytes.Equal(again, body) {
			t.Fatalf("a re-encoded entry of %d bytes parsed to %d bytes (ok %v)", len(body), len(again), ok)
		}
	})
}
