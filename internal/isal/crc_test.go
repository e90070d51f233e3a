package isal

import (
	"hash/crc32"
	"testing"
	"testing/quick"
)

func TestCRC32MatchesStdlib(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		[]byte("a"),
		[]byte("123456789"),
		[]byte("The quick brown fox jumps over the lazy dog"),
		make([]byte, 4096),
	}
	for i := range cases[len(cases)-1] {
		cases[len(cases)-1][i] = byte(i * 7)
	}
	for _, c := range cases {
		want := crc32.ChecksumIEEE(c)
		if got := CRC32(0, c); got != want {
			t.Errorf("CRC32(%q) = %#x, want %#x", c, got, want)
		}
	}
}

func TestCRC32KnownVector(t *testing.T) {
	// The canonical check value for CRC-32/ISO-HDLC.
	if got := CRC32(0, []byte("123456789")); got != 0xCBF43926 {
		t.Fatalf("CRC32 check = %#x, want 0xCBF43926", got)
	}
}

func TestCRC32MatchesBitwiseQuick(t *testing.T) {
	f := func(p []byte, seed uint32) bool {
		return CRC32(seed, p) == CRC32Bitwise(seed, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCRC32SeedContinuation(t *testing.T) {
	data := []byte("hello world, this is a two-part checksum")
	whole := CRC32(0, data)
	part := CRC32(CRC32(0, data[:13]), data[13:])
	if whole != part {
		t.Fatalf("continued CRC %#x != whole %#x", part, whole)
	}
}

// FuzzCRC32 checks the kernel against the bitwise reference for any
// input and seed, and that splitting the input anywhere and continuing
// from the first part's CRC gives the whole input's CRC.
func FuzzCRC32(f *testing.F) {
	f.Add([]byte("123456789"), uint32(0), uint16(4))
	f.Add(make([]byte, 4096), uint32(0xFFFFFFFF), uint16(1000))
	f.Add([]byte{}, uint32(7), uint16(0))
	f.Fuzz(func(t *testing.T, p []byte, seed uint32, split uint16) {
		want := CRC32Bitwise(seed, p)
		if got := CRC32(seed, p); got != want {
			t.Fatalf("CRC32(%#x, %d bytes) = %#x, bitwise %#x", seed, len(p), got, want)
		}
		k := int(split)
		if k > len(p) {
			k = len(p)
		}
		if got := CRC32(CRC32(seed, p[:k]), p[k:]); got != want {
			t.Fatalf("CRC32 continued at %d of %d bytes = %#x, whole %#x", k, len(p), got, want)
		}
	})
}

func TestCRC16T10DIFKnownVector(t *testing.T) {
	// CRC-16/T10-DIF check value.
	if got := CRC16T10DIF(0, []byte("123456789")); got != 0xD0DB {
		t.Fatalf("CRC16T10DIF check = %#x, want 0xD0DB", got)
	}
}

func TestCRC16ZeroBlock(t *testing.T) {
	// All-zero input with zero seed yields zero (property of the
	// non-inverted T10 CRC) — a classic DIF edge case.
	if got := CRC16T10DIF(0, make([]byte, 512)); got != 0 {
		t.Fatalf("CRC16 of zeros = %#x, want 0", got)
	}
}

func TestFillPatterns(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 16, 100, 4096} {
		dst := make([]byte, n)
		Fill(dst, 0x0807060504030201)
		for i, b := range dst {
			if b != byte(i%8+1) {
				t.Fatalf("n=%d: dst[%d] = %#x, want %#x", n, i, b, i%8+1)
			}
		}
	}
}

func TestFillThenComparePatternQuick(t *testing.T) {
	f := func(pattern uint64, size uint16) bool {
		dst := make([]byte, int(size)%5000)
		Fill(dst, pattern)
		_, eq := ComparePattern(dst, pattern)
		return eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestComparePatternFindsMismatch(t *testing.T) {
	dst := make([]byte, 64)
	Fill(dst, 0x1111111111111111)
	dst[37] ^= 0xFF
	off, eq := ComparePattern(dst, 0x1111111111111111)
	if eq || off != 37 {
		t.Fatalf("ComparePattern = (%d,%v), want (37,false)", off, eq)
	}
}

func TestCompare(t *testing.T) {
	a := []byte("identical bytes here")
	b := append([]byte(nil), a...)
	if off, eq := Compare(a, b); !eq || off != 0 {
		t.Fatalf("Compare equal = (%d,%v)", off, eq)
	}
	b[5] ^= 1
	if off, eq := Compare(a, b); eq || off != 5 {
		t.Fatalf("Compare mismatch = (%d,%v), want (5,false)", off, eq)
	}
	if off, eq := Compare(a, a[:10]); eq || off != 10 {
		t.Fatalf("Compare length mismatch = (%d,%v), want (10,false)", off, eq)
	}
}

func BenchmarkCRC32_4K(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		CRC32(0, buf)
	}
}

func BenchmarkCRC32Bitwise4K(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		CRC32Bitwise(0, buf)
	}
}
