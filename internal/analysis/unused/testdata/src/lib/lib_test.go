package lib

import "testing"

func TestOwn(t *testing.T) {
	if OwnTests() != 4 {
		t.Fail()
	}
}
