package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGenDesignBytesPinned pins the synthetic design generator's output
// byte for byte: every -synth benchmark number and the -verify hash are
// only comparable across revisions while the generated text is unchanged.
func TestGenDesignBytesPinned(t *testing.T) {
	h := sha256.New()
	if err := genDesign(context.Background(), h, 3000, 50, 1); err != nil {
		t.Fatal(err)
	}
	const want = "c23e583a83443debc39f93b1c9ccea22faae6a6dc526ad28c8b24fa98f8aa484"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("genDesign(3000, 50, 1) sha256 = %s, want %s", got, want)
	}
}
