package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreRecover opens a store whose one segment holds arbitrary
// bytes (records == 0) or a valid header and records%8 valid records
// followed by arbitrary bytes. Open must not fail or panic, and what the
// store then serves must be exactly the intact records left in the
// recovered segment: every key whose last intact frame has a matching
// CRC is served with that frame's value, and a key whose frames all fail
// their CRC is never served. The store must stay writable.
//
// testdata/fuzz/FuzzStoreRecover holds a valid segment, a torn tail, a
// flipped CRC byte, a foreign header and a huge length field.
func FuzzStoreRecover(f *testing.F) {
	f.Add(uint8(3), []byte{})
	f.Add(uint8(0), []byte("garbage!garbage!garbage!"))
	f.Fuzz(func(t *testing.T, records uint8, tail []byte) {
		var seg []byte
		if n := int(records % 8); records > 0 {
			seg = segmentHeader()
			for i := 0; i < n; i++ {
				seg = append(seg, encodeRecord(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("value-%d", i)))...)
			}
		}
		seg = append(seg, tail...)
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-00000001.log")
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open of a %d-byte segment: %v", len(seg), err)
		}
		defer s.Close()

		recovered, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		intact, corrupt := scanFrames(recovered)
		for key, val := range intact {
			if got, ok := s.Get(key); !ok || !bytes.Equal(got, val) {
				t.Errorf("intact record %q: Get = %q, %v; want %q", key, got, ok, val)
			}
		}
		for key := range corrupt {
			if _, ok := intact[key]; ok {
				continue
			}
			if got, ok := s.Get(key); ok {
				t.Errorf("record %q failed its CRC but Get served %q", key, got)
			}
		}
		if err := s.Put("fuzz-after", []byte("v")); err != nil {
			t.Fatalf("Put after recovery: %v", err)
		}
		if got, ok := s.Get("fuzz-after"); !ok || string(got) != "v" {
			t.Fatalf("Get after recovery = %q, %v", got, ok)
		}
	})
}

// segmentHeader is the 16 bytes every segment starts with.
func segmentHeader() []byte {
	hdr := make([]byte, headerSize)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	return hdr
}

// scanFrames walks a segment's record frames after its header, as far
// as they frame, and returns the last intact value of each key and the
// keys of frames whose CRC or key length is bad.
func scanFrames(seg []byte) (intact map[string][]byte, corrupt map[string]bool) {
	intact, corrupt = make(map[string][]byte), make(map[string]bool)
	if len(seg) < headerSize || !bytes.Equal(seg[:headerSize], segmentHeader()) {
		return intact, corrupt
	}
	for off := headerSize; off+recHdrSize <= len(seg); {
		crc := binary.LittleEndian.Uint32(seg[off:])
		plen := int(binary.LittleEndian.Uint32(seg[off+4:]))
		if plen < 2 || off+recHdrSize+plen > len(seg) {
			break
		}
		payload := seg[off+recHdrSize : off+recHdrSize+plen]
		klen := int(binary.LittleEndian.Uint16(payload))
		off += recHdrSize + plen
		if 2+klen > plen {
			continue // no key to name
		}
		key := string(payload[2 : 2+klen])
		if crc32.ChecksumIEEE(payload) != crc {
			corrupt[key] = true
			continue
		}
		intact[key] = payload[2+klen:]
	}
	return intact, corrupt
}
