package repro.bench

import repro.harness.{Experiments, Harness, Profile}

/** Paper Table III: all methods on TP-TR Small.
  *
  * Expected shape (paper): Gen-T dominates every baseline on every
  * metric; ALITE has high recall but very low precision; Auto-Pipeline*
  * and Ver sit between; Gen-T perfectly reclaims most sources while
  * baselines perfectly reclaim at most a few.
  */
class TableIIIBench extends BenchSpec {

  test("Table III: TP-TR Small effectiveness") {
    val t = Experiments.tableIII(session, Profile.Bench, BenchSupport.lakes)
    BenchSupport.emit("table3.txt", t.text)

    val byM = t.aggs.map(a => a.method -> a).toMap
    val genT = byM("Gen-T")
    // Shape assertions from the paper's claims.
    for (m <- Harness.TableIIIMethods.map(_.label) if m != "Gen-T"; a <- byM.get(m)
         if !a.rec.isNaN) {
      assert(genT.rec >= a.rec - 0.05, s"Gen-T recall should lead: $m ${a.rec}")
      assert(genT.pre >= a.pre - 0.05, s"Gen-T precision should lead: $m ${a.pre}")
    }
    assert(genT.perfect >= byM.values.filter(_.method != "Gen-T").map(_.perfect).max,
      "Gen-T should perfectly reclaim at least as many sources as any baseline")
  }
}
