package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// trainOnce runs the training system process in-process with a short
// budget and returns its report.
func trainOnce(t *testing.T, seed int64, episodes int) childReport {
	t.Helper()
	var out bytes.Buffer
	if err := runTrainChild(seed, episodes, strings.NewReader("go\n"), &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 || lines[0] != "ready" {
		t.Fatalf("training process printed %q, want ready then a report", out.String())
	}
	var rep childReport
	if err := json.Unmarshal([]byte(lines[1]), &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestShortTrainingRunRepeatsItsPolicyDigest(t *testing.T) {
	// The process saves the controller under the benchmark's scratch
	// directory, relative to the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if err := os.MkdirAll(tmpDir(), 0o755); err != nil {
		t.Fatal(err)
	}

	a := trainOnce(t, 3, 2)
	b := trainOnce(t, 3, 2)
	for _, r := range []childReport{a, b} {
		if len(r.Problems) > 0 {
			t.Errorf("training output checks failed: %v", r.Problems)
		}
		if r.Episodes != 2 || r.Steps == 0 {
			t.Errorf("report %+v: want 2 episodes with simulator steps", r)
		}
	}
	if len(a.Digest) != 64 || a.Digest != b.Digest {
		t.Errorf("policy digests %q and %q, want the same sha256 twice", a.Digest, b.Digest)
	}
}
