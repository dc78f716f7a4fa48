package qoserve_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestCommandLayering keeps the experiment harness out of the tools: no
// command except cmd/experiments may depend on internal/experiments.
func TestCommandLayering(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", "-f",
		`{{if eq .Name "main"}}{{.ImportPath}} {{join .Deps " "}}{{end}}`, "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	const harness = "qoserve/internal/experiments"
	commands := 0
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		commands++
		if fields[0] == "qoserve/cmd/experiments" {
			continue
		}
		for _, dep := range fields[1:] {
			if dep == harness {
				t.Errorf("%s depends on %s", fields[0], harness)
			}
		}
	}
	if commands == 0 {
		t.Fatal("go list found no commands under ./cmd")
	}
}
