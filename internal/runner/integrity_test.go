package runner

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/resilience"
)

func TestCachePutGetRoundTripsSealedEntries(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"answer":42}`)
	if err := c.Put("aaaa", payload); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get("aaaa")
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload round-trip mangled: %q", got)
	}
	// On disk the entry carries the trailer.
	raw, err := os.ReadFile(filepath.Join(c.Dir(), "aaaa.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(sumMarker)) {
		t.Error("stored entry has no integrity trailer")
	}
	if len(raw) <= len(payload) {
		t.Error("stored entry not longer than payload")
	}
}

// An entry without the integrity trailer cannot be verified, so it is a
// miss and its bytes move unchanged into quarantine/.
func TestCacheUnsealedEntryQuarantinedAsMiss(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	unsealed := []byte(`{"pre":"integrity"}`)
	if err := os.WriteFile(filepath.Join(c.Dir(), "bbbb.json"), unsealed, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("bbbb"); ok || err != nil {
		t.Fatalf("unsealed Get: ok=%v err=%v, want miss", ok, err)
	}
	if _, err := os.Stat(filepath.Join(c.Dir(), "bbbb.json")); !errors.Is(err, os.ErrNotExist) {
		t.Error("unsealed entry still in the lookup path")
	}
	got, err := os.ReadFile(filepath.Join(c.QuarantineDir(), "bbbb.json"))
	if err != nil {
		t.Fatalf("unsealed entry not quarantined: %v", err)
	}
	if !bytes.Equal(got, unsealed) {
		t.Errorf("quarantined bytes %q, want %q", got, unsealed)
	}
}

// corruptOnDisk flips one payload byte of a stored entry in place.
func corruptOnDisk(t *testing.T, c *Cache, key string) {
	t.Helper()
	p := filepath.Join(c.Dir(), key+".json")
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCacheCorruptEntryQuarantinedAsMiss(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var events [][2]string
	c.OnQuarantine(func(key, dest string) { events = append(events, [2]string{key, dest}) })
	if err := c.Put("cccc", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, c, "cccc")

	_, ok, err := c.Get("cccc")
	if err != nil {
		t.Fatalf("corrupt Get errored: %v", err)
	}
	if ok {
		t.Fatal("corrupt entry served as a hit")
	}
	// The poisoned file moved to quarantine/ and is preserved there.
	if _, err := os.Stat(filepath.Join(c.Dir(), "cccc.json")); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt entry still in the lookup path")
	}
	qfile := filepath.Join(c.QuarantineDir(), "cccc.json")
	if _, err := os.Stat(qfile); err != nil {
		t.Errorf("quarantined bytes not preserved: %v", err)
	}
	if len(events) != 1 || events[0][0] != "cccc" || events[0][1] != qfile {
		t.Errorf("OnQuarantine events %v, want one for cccc", events)
	}
	if n, err := c.Len(); err != nil || n != 0 {
		t.Errorf("Len counts quarantined entries: %d (err %v)", n, err)
	}
	// The key is writable again and verifies after the recompute.
	if err := c.Put("cccc", []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := c.Get("cccc"); !ok || !bytes.Equal(got, []byte(`{"v":2}`)) {
		t.Error("recomputed entry not served")
	}
}

func TestCacheTruncatedTrailerQuarantined(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put("dddd", []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(c.Dir(), "dddd.json")
	raw, _ := os.ReadFile(p)
	if err := os.WriteFile(p, raw[:len(raw)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("dddd"); ok || err != nil {
		t.Fatalf("truncated entry: ok=%v err=%v, want miss", ok, err)
	}
	if _, err := os.Stat(filepath.Join(c.QuarantineDir(), "dddd.json")); err != nil {
		t.Error("truncated entry not quarantined")
	}
}

// Concurrent readers hitting the same corrupt entry must quarantine it
// exactly once, race-free (run under -race in CI).
func TestCacheConcurrentQuarantine(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	events := 0
	c.OnQuarantine(func(key, dest string) { mu.Lock(); events++; mu.Unlock() })
	if err := c.Put("eeee", bytes.Repeat([]byte("x"), 4096)); err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, c, "eeee")
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok, err := c.Get("eeee"); ok || err != nil {
				t.Errorf("concurrent Get on corrupt entry: ok=%v err=%v", ok, err)
			}
		}()
	}
	wg.Wait()
	if events != 1 {
		t.Errorf("quarantine hook fired %d times, want 1", events)
	}
}

func TestCacheCorruptorInjectsBeforeDisk(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	inj := resilience.NewInjector(resilience.Fault{Site: "ffff", Kind: resilience.KindCorrupt})
	c.SetCorruptor(inj.Corrupt)
	if err := c.Put("ffff", bytes.Repeat([]byte(`{"v":3}`), 40)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get("ffff"); ok || err != nil {
		t.Fatalf("injected corruption not detected: ok=%v err=%v", ok, err)
	}
	if got := len(inj.Events()); got != 1 {
		t.Errorf("injector fired %d times, want 1", got)
	}
}
