package spef

import "strconv"

// parseFloat decodes a SPEF value exactly as strconv.ParseFloat(string(b),
// 64) does — the same bits and the same error — without the string.
//
// Plain decimals [+-]digits[.digits][(e|E)[+-]digits] whose significant
// digits form an integer below 2^53 and whose decimal exponent lies within
// ±22 take Clinger's exact path, the one strconv also takes first: both
// the integer and the power of ten are exact float64 values, so one IEEE
// multiply or divide is the correctly rounded result. Every other token —
// longer mantissas, larger exponents, inf, NaN, hex, underscores and
// anything malformed — is handed to strconv.
func parseFloat(b []byte) (float64, error) {
	if f, ok := exactDecimal(b); ok {
		return f, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// exactDecimal is parseFloat's fast path; ok is false when the token is
// outside it.
func exactDecimal(b []byte) (f float64, ok bool) {
	i := 0
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	// mant accumulates every mantissa digit; leading zeros leave it zero,
	// and once it reaches 2^53 the token is strconv's.
	var mant uint64
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		if mant >= 1<<53 {
			return 0, false
		}
		mant = mant*10 + uint64(b[i]-'0')
	}
	digits := i - start
	exp := 0
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if mant >= 1<<53 {
				return 0, false
			}
			mant = mant*10 + uint64(b[i]-'0')
		}
		digits += i - frac
		exp = frac - i
	}
	if digits == 0 {
		return 0, false
	}
	if i < len(b) {
		if b[i] != 'e' && b[i] != 'E' {
			return 0, false
		}
		i++
		esign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				esign = -1
			}
			i++
		}
		if i == len(b) {
			return 0, false
		}
		e := 0
		for ; i < len(b); i++ {
			if b[i]-'0' > 9 {
				return 0, false
			}
			if e < 1000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		exp += esign * e
	}
	if mant >= 1<<53 || exp < -22 || exp > 22 {
		return 0, false
	}
	f = float64(mant)
	if neg {
		f = -f
	}
	if exp >= 0 {
		return f * pow10[exp], true
	}
	return f / pow10[-exp], true
}
