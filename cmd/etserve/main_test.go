package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRunRejectsBadSolveFlagsBeforeListening: a NaN ω or gap tolerance
// must stop the daemon at start-up, before the preload (whose state
// file does not exist, so reaching it would fail differently) and
// before the listener (reaching it would block serving).
func TestRunRejectsBadSolveFlagsBeforeListening(t *testing.T) {
	preload := filepath.Join(t.TempDir(), "missing.json")
	for _, tc := range []struct{ flag, want string }{{"-omega", "omega"}, {"-gap", "gap"}} {
		done := make(chan error, 1)
		go func() {
			done <- run([]string{tc.flag, "NaN", "-addr", "127.0.0.1:0", "-preload", preload})
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s NaN: err = %v, want an error naming %s", tc.flag, err, tc.want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s NaN: run did not return; the daemon started serving", tc.flag)
		}
	}
}
