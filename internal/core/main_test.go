package core

import (
	"testing"

	"discover/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
