package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzFileReplay opens arbitrary bytes as a File log. NewFile must not
// panic or fail; it must keep every record before the first malformed line
// (one that is not a JSON record with a non-empty key), in order and
// subject to the LRU cap; and reopening the compacted log must yield
// identical entries.
func FuzzFileReplay(f *testing.F) {
	f.Add([]byte(`{"k":"a","v":"MQ=="}`+"\n"+`{"k":"b","v":"Mg=="}`+"\n"), uint8(8))
	f.Add([]byte(`{"k":"a","v":"MQ=="}`+"\n"+`{"k":"torn","v":"aGFs`), uint8(8))
	f.Add([]byte(`{"k":"a","v":"MQ=="}`+"\n\n"+`{"k":"b","v":"Mg=="}`+"\n"), uint8(8))
	f.Add([]byte(`{"k":"a","v":"MQ=="}`+"\n"+`{"k":"b"}`+"\n"+`{"k":"a","v":""}`+"\n"+`{"k":"c","v":null}`), uint8(2))
	f.Add([]byte(`{"k":"","v":"MQ=="}`+"\n"+`{"k":"b","v":"Mg=="}`+"\n"), uint8(0))
	f.Add([]byte(`{"k":"a","v":"!!"}`+"\n"), uint8(3))
	f.Add([]byte(`{"K":"x\né","v":"MQ==","extra":[1]}`+"\r\n"+`{"k":"y"} {"k":"z"}`+"\n"), uint8(4))
	f.Fuzz(func(t *testing.T, log []byte, capByte uint8) {
		capacity := int(capByte % 9) // 0 exercises the minimum-of-one clamp
		path := filepath.Join(t.TempDir(), "results.log")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := NewFile(path, capacity)
		if err != nil {
			t.Fatalf("NewFile: %v", err)
		}
		got := s.mem.Entries()
		if err := s.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		want := replayModel(log, capacity)
		if len(got) != len(want) {
			t.Fatalf("replayed %d entries, want %d: %v vs %v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i].Key != want[i].Key || !bytes.Equal(got[i].Body, want[i].Body) {
				t.Fatalf("entry %d = %q:%q, want %q:%q", i, got[i].Key, got[i].Body, want[i].Key, want[i].Body)
			}
		}
		r, err := NewFile(path, capacity)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		again := r.mem.Entries()
		if err := r.Close(); err != nil {
			t.Fatalf("Close after reopen: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("reopened entries %v, want %v", again, got)
		}
	})
}

// replayModel is the replay contract stated directly: the log's lines are
// read in order up to the first that is not a JSON record with a non-empty
// key, and each record is put into a list-modelled LRU of the given
// capacity (at least one) — a re-put key moves to the newest end, and
// overflow drops the oldest. It returns the entries oldest first.
func replayModel(log []byte, capacity int) []Entry {
	capacity = max(capacity, 1)
	var out []Entry
	for len(log) > 0 {
		line := log
		if i := bytes.IndexByte(log, '\n'); i >= 0 {
			line, log = log[:i+1], log[i+1:]
		} else {
			log = nil
		}
		var r record
		if json.Unmarshal(line, &r) != nil || r.K == "" {
			break
		}
		for i, e := range out {
			if e.Key == r.K {
				out = append(out[:i], out[i+1:]...)
				break
			}
		}
		out = append(out, Entry{Key: r.K, Body: r.V})
		if len(out) > capacity {
			out = out[1:]
		}
	}
	return out
}
