"""Property-suite harness: generation, enumeration, suites, shrinking, mutations."""
