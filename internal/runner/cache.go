package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Cache is a disk-backed result store keyed by content hashes. It
// makes sweeps resumable: a finished job's encoded result is written
// under its key, and a rerun of the same sweep loads the stored bytes
// instead of recomputing. Writes are atomic (temp file + rename), so
// an interrupted run never leaves a truncated entry behind.
//
// Entries carry an integrity trailer: Put appends a sha256 digest of
// the payload, Get verifies it and strips it. An entry whose digest no
// longer matches (bit rot, a torn write from a crashed kernel, a
// truncating copy) is moved to <dir>/quarantine/ and reported as a
// miss, so a resume recomputes the case instead of decoding garbage.
// An entry with no trailer at all is treated the same way.
type Cache struct {
	dir string

	// hookMu guards the hooks below against concurrent readers that
	// quarantine simultaneously.
	hookMu sync.Mutex
	// onQuarantine, when set, observes every quarantined entry.
	onQuarantine func(key, dest string)
	// corrupt, when set, transforms the sealed entry bytes before they
	// reach disk. Fault injection only (chaos tests, -chaos-corrupt).
	corrupt func(key string, data []byte) []byte
}

// sumMarker introduces the integrity trailer: a line appended after
// the payload holding the hex sha256 of everything before it. JSON
// payloads never contain a raw newline, so the last marker occurrence
// always belongs to the trailer, not the data.
const sumMarker = "\n//repro:sha256:"

// sealEntry appends the integrity trailer to a payload.
func sealEntry(data []byte) []byte {
	sum := sha256.Sum256(data)
	out := make([]byte, 0, len(data)+len(sumMarker)+sha256.Size*2+1)
	out = append(out, data...)
	out = append(out, sumMarker...)
	out = append(out, hex.EncodeToString(sum[:])...)
	return append(out, '\n')
}

// openEntry splits a stored entry into payload and verdict: ok=false
// means the trailer is missing or does not verify — the file is
// corrupt.
func openEntry(raw []byte) (data []byte, ok bool) {
	idx := bytes.LastIndex(raw, []byte(sumMarker))
	if idx < 0 {
		return nil, false
	}
	tail := bytes.TrimSuffix(raw[idx+len(sumMarker):], []byte("\n"))
	if len(tail) != sha256.Size*2 {
		return nil, false
	}
	want, err := hex.DecodeString(string(tail))
	if err != nil {
		return nil, false
	}
	sum := sha256.Sum256(raw[:idx])
	if !bytes.Equal(sum[:], want) {
		return nil, false
	}
	return raw[:idx], true
}

// OpenCache opens (creating if necessary) a cache rooted at dir.
// Temp files orphaned by interrupted writes are swept on open.
func OpenCache(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	if stale, err := filepath.Glob(filepath.Join(dir, "*.tmp-*")); err == nil {
		for _, f := range stale {
			// Age-gate the sweep: a live writer's temp file exists for
			// milliseconds before its rename, so only files old enough
			// to be orphans of a dead run are removed — never the
			// in-flight writes of another process sharing the dir.
			if fi, err := os.Stat(f); err == nil && time.Since(fi.ModTime()) > time.Hour { //reprovet:allow globalrand wall-clock age gates orphan-file cleanup only; results never depend on it
				os.Remove(f)
			}
		}
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// QuarantineDir returns the directory corrupt entries are moved to.
func (c *Cache) QuarantineDir() string { return filepath.Join(c.dir, "quarantine") }

// OnQuarantine registers fn to observe every entry the cache
// quarantines (corrupt digest, undecodable payload). fn may be called
// from concurrent readers; the cache serializes the calls.
func (c *Cache) OnQuarantine(fn func(key, dest string)) {
	c.hookMu.Lock()
	defer c.hookMu.Unlock()
	c.onQuarantine = fn
}

// SetCorruptor installs a fault-injection transform applied to the
// sealed entry bytes on every Put. Chaos testing only — it exists so
// injected disk corruption exercises exactly the bytes a real torn
// write would.
func (c *Cache) SetCorruptor(fn func(key string, data []byte) []byte) {
	c.hookMu.Lock()
	defer c.hookMu.Unlock()
	c.corrupt = fn
}

// path maps a key to its file. Keys are hex digests, so they are safe
// path components as-is.
func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get returns the stored payload for key, with ok = false when the
// entry does not exist or failed integrity verification (in which case
// it has been quarantined — never silently deleted — and the caller
// should recompute).
func (c *Cache) Get(key string) (data []byte, ok bool, err error) {
	raw, err := os.ReadFile(c.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("runner: cache get: %w", err)
	}
	data, ok = openEntry(raw)
	if !ok {
		c.Quarantine(key)
		return nil, false, nil
	}
	return data, true, nil
}

// Quarantine moves the entry for key into the quarantine directory,
// preserving the corrupt bytes for post-mortem instead of deleting
// them, and returns the destination path. Concurrent readers may race
// to quarantine the same entry; exactly one wins the rename and fires
// the OnQuarantine hook, the others are no-ops.
func (c *Cache) Quarantine(key string) (dest string, err error) {
	qdir := c.QuarantineDir()
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", fmt.Errorf("runner: quarantine: %w", err)
	}
	dest = filepath.Join(qdir, key+".json")
	if err := os.Rename(c.path(key), dest); err != nil {
		// A concurrent reader already moved it (or it never existed);
		// either way the poisoned entry is out of the lookup path.
		return "", nil
	}
	c.hookMu.Lock()
	fn := c.onQuarantine
	if fn != nil {
		fn(key, dest)
	}
	c.hookMu.Unlock()
	return dest, nil
}

// Put stores data under key atomically, sealed with an integrity
// trailer.
func (c *Cache) Put(key string, data []byte) error {
	payload := sealEntry(data)
	c.hookMu.Lock()
	if c.corrupt != nil {
		payload = c.corrupt(key, payload)
	}
	c.hookMu.Unlock()
	tmp, err := os.CreateTemp(c.dir, key+".tmp-*")
	if err != nil {
		return fmt.Errorf("runner: cache put: %w", err)
	}
	_, werr := tmp.Write(payload)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("runner: cache put: %w", werr)
		}
		return fmt.Errorf("runner: cache put: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache put: %w", err)
	}
	return nil
}

// Len reports the number of entries currently stored (quarantined
// entries excluded).
func (c *Cache) Len() (int, error) {
	matches, err := filepath.Glob(filepath.Join(c.dir, "*.json"))
	if err != nil {
		return 0, err
	}
	return len(matches), nil
}

// Key derives a stable cache key from an ordered list of
// JSON-encodable parts (typically a format-version tag, the job spec,
// and the result-affecting configuration fields). Two jobs share a key
// exactly when every part encodes identically.
func Key(parts ...any) (string, error) {
	h := sha256.New()
	for _, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			return "", fmt.Errorf("runner: cache key: %w", err)
		}
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
