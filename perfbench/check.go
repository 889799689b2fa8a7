package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
)

// tally counts operations and the ones whose output check failed. An
// operation is one Run of a single-run workload or one sweep cell.
type tally struct {
	attempted, failed int
	notes             []string
}

// op records one operation; a false ok counts it as failed and keeps
// the reason for the error log.
func (t *tally) op(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// check records a failed check on an operation already counted, such
// as a comparison made after the run that produced it.
func (t *tally) check(ok bool, format string, args ...any) {
	if !ok {
		t.failed++
		t.notes = append(t.notes, fmt.Sprintf(format, args...))
	}
}

// digest hashes one Results CSV row.
func digest(row []string) string {
	sum := sha256.Sum256([]byte(strings.Join(row, ",")))
	return hex.EncodeToString(sum[:8])
}
