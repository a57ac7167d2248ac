package other

import (
	"testing"

	"fixture/lib"
)

func TestLib(t *testing.T) {
	if lib.ForTests() != 2 {
		t.Fail()
	}
}
