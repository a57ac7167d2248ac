package x_test

import "fixture/x"

var _ = x.Inner() + x.T{}.N()
