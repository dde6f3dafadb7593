package spef

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// sameAsStrconv reports how parseFloat differs from strconv.ParseFloat on
// s, or "" when they agree on the bits and on the error text.
func sameAsStrconv(s string) string {
	got, gerr := parseFloat([]byte(s))
	want, werr := strconv.ParseFloat(s, 64)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		return fmt.Sprintf("%q: error %v, strconv %v", s, gerr, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Sprintf("%q: %v (%#x), strconv %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return ""
}

// decimalCases are the tokens the fast path must decode exactly as
// strconv does, or hand to it: renderings of random values, the edges of
// the exact path, special values and malformed tokens.
func decimalCases() []string {
	cases := []string{
		// signs, zeros, leading zeros and bare points
		"0", "-0", "+0", "0.0", "-0.0", "-0e5", "00", "007", "0.05", "-000.000123",
		"5.", ".5", "-.5", "+5.", ".", "-", "+", "", "-.", "..5", "5..", "5.5.",
		// exponents at and beyond the exact range
		"1e22", "1e23", "1e-22", "1e-23", "9e22", "9e-22", "123e20", "123e21",
		"1.5e22", "1.5e23", "0.5e-21", "5e-23", "1E5", "1e+05", "1e-05", "1e+0", "1e0",
		"1e", "1e+", "1e-", "e5", "1e5.0", "1ee5", "1e++5", "1e99999999999999", "0e99999",
		// 15 to 17 significant digits and the 2^53 boundary
		"123456789012345", "1234567890123456", "12345678901234567",
		"0.1234567890123456", "9007199254740991", "9007199254740992", "9007199254740993",
		"9007199254740991e-22", "9007199254740993e-22", "18014398509481984",
		"12345678901234567890", "123456789012345678901234567890",
		"0.000000000000000000000000000001", "1000000000000000000000000",
		// out of range
		"1e400", "-1e400", "1e-330", "-1e-330", "4.9e-324", "2.5e-324", "1.7976931348623157e308",
		// special values, hex and underscores
		"inf", "-Inf", "+INF", "infinity", "NaN", "nan", "0x1p-2", "0X1.8P3", "1_000", "0x_1p0",
		// malformed
		"abc", "1a", "1.5x", " 1", "1 ", "1,5", "--1", "+-1", "1e5e5", "0.5e",
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := math.Float64frombits(rng.Uint64())
		if i%2 == 0 {
			v = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
		}
		cases = append(cases,
			strconv.FormatFloat(v, 'g', -1, 64),
			fmt.Sprintf("%g", v),
			fmt.Sprintf("%.6g", v),
			strconv.FormatFloat(v, 'f', -1, 64),
			strconv.FormatFloat(v, 'e', rng.Intn(18), 64))
	}
	return cases
}

// TestParseFloatMatchesStrconv: the in-place decimal decoder returns
// strconv.ParseFloat's bits and error text on every case.
func TestParseFloatMatchesStrconv(t *testing.T) {
	for _, s := range decimalCases() {
		if d := sameAsStrconv(s); d != "" {
			t.Error(d)
		}
	}
}

// TestExactDecimalCoverage: the exact path takes the plain decimals of a
// SPEF file and leaves the tokens outside it to strconv.
func TestExactDecimalCoverage(t *testing.T) {
	for _, s := range []string{"0.0198541", "15.4722", "-0", "5.", ".5", "1e22", "1e-22", "9007199254740991", "0.72", "1.23e-05"} {
		if _, ok := exactDecimal([]byte(s)); !ok {
			t.Errorf("%q left the exact path", s)
		}
	}
	for _, s := range []string{"1e23", "1e-23", "9007199254740992", "12345678901234567890", "inf", "NaN", "0x1p-2", "1_0", ".", "1e", "1e400"} {
		if _, ok := exactDecimal([]byte(s)); ok {
			t.Errorf("%q took the exact path", s)
		}
	}
}

// FuzzParseDecimal: on any token the in-place decoder agrees with
// strconv.ParseFloat bit for bit and error for error.
func FuzzParseDecimal(f *testing.F) {
	for _, s := range decimalCases()[:200] {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if d := sameAsStrconv(s); d != "" {
			t.Fatal(d)
		}
	})
}
