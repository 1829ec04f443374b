package procstart

import (
	"testing"

	"repro/internal/lint/analysistest"
)

func TestProcstart(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), Analyzer,
		"repro/internal/sockets", "repro/internal/cluster", "repro/cmd/tool")
}
