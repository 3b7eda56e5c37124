package repro.bench

import repro.harness.{Experiments, Profile}

/** Paper Table I: statistics of the benchmark data lakes.
  *
  * Ours are container-scaled (DESIGN.md §5); the point of this table is
  * the relative ordering (Small ≪ Med ≪ Large; the embedded lakes add an
  * order of magnitude more tables), which must match the paper.
  */
class TableIBench extends BenchSpec {

  test("Table I: benchmark lake statistics") {
    val (text, benches) = Experiments.tableI(session, Profile.Bench, BenchSupport.lakes)
    BenchSupport.emit("table1.txt", text)
    assert(benches.size == 6)
  }
}
