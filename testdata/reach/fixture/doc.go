// Package fixture is the module TestReachFixture (reach_test.go at the
// repository root) runs the reach gate on. lib plants one of each finding
// the gate reports and each case it must not report; cmd/fixture is the
// root that reaches it, and cmd/untested is a program no test runs. The
// module has its own go.mod, so the repository's ./... never builds it.
package fixture
