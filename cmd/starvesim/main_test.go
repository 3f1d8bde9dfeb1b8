package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// starvesim is the command under test, built once by TestMain.
var starvesim string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "starvesim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	starvesim = filepath.Join(dir, "starvesim")
	build := exec.Command("go", "build", "-o", starvesim, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building starvesim:", err)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// customRunSHA256 is the SHA-256 of the fixed-seed custom run's stdout: a
// vegas/reno pair on a 12 Mbit/s, 32-packet link with bursty loss on flow 0
// and a flapping link rate profile.
const customRunSHA256 = "91357f613265780c472e776298e290d2bf6dbaef8b37b1034d5d0389e4bcaeae"

// TestExitCodes pins the command's exit-status contract: 0 for a run, 2
// for a malformed configuration (with the validation message on stderr),
// and the fixed-seed run's exact output.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // substring of stderr; empty means stderr is empty
	}{
		{"custom run", []string{"-cca", "vegas", "-cca2", "reno", "-rate", "12", "-buffer", "32",
			"-duration", "3s", "-seed", "5", "-faults", "ge:0.01,0.3,0.5;flap:1s,100ms"}, 0, ""},
		{"zero rate", []string{"-cca", "vegas", "-rate", "0", "-duration", "1s"},
			2, "starvesim: network: link 0: link rate must be positive"},
		{"unknown cca", []string{"-cca", "nosuch", "-duration", "1s"}, 2, `unknown CCA "nosuch"`},
		{"malformed faults", []string{"-cca", "vegas", "-faults", "wat:1", "-duration", "1s"},
			2, `faults: unknown clause kind "wat"`},
		{"malformed flows", []string{"-flows", "reno*x", "-duration", "1s"},
			2, `flows: group "reno*x": bad count "x"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(starvesim, c.args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			code := 0
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					t.Fatal(err)
				}
				code = exit.ExitCode()
			}
			if code != c.code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, c.code, stderr.String())
			}
			if c.stderr == "" && stderr.Len() > 0 || !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q, want %q", stderr.String(), c.stderr)
			}
			if c.code != 0 {
				return
			}
			sum := sha256.Sum256(stdout.Bytes())
			if got := hex.EncodeToString(sum[:]); got != customRunSHA256 {
				t.Errorf("stdout SHA-256 %s, want %s; stdout:\n%s", got, customRunSHA256, stdout.String())
			}
		})
	}
}
