package lib

import "testing"

func TestOwn(t *testing.T) {
	if OwnTests()+ownTests() != 11 {
		t.Fail()
	}
}
