package repro.core

import org.apache.spark.{SparkException, TaskContext}
import repro.SparkSpec

/** [[SparkScope.runJob]]: one job, one result per partition, in partition
  * order, and a failure in the function reaches the caller. */
class SparkScopeSpec extends SparkSpec {
  import SparkScopeSpec._

  test("runJob returns each partition's result in partition order") {
    val rdd = spark.sparkContext.parallelize(1 to 10, 4)
    val (results, jobs) = SparkSpec.countJobs(spark)(SparkScope.runJob(rdd, Tagged))
    assert(results == rdd.glom().collect().toSeq.zipWithIndex.map { case (xs, i) => (i, xs.toSeq) })
    assert(results.map(_._2.size) == Seq(2, 3, 2, 3))
    assert(jobs == 1)
  }

  test("runJob over an RDD with no partitions returns no results") {
    assert(SparkScope.runJob(spark.sparkContext.emptyRDD[Int], Tagged).isEmpty)
  }

  test("runJob passes an exception thrown in the function to the caller") {
    val e = intercept[SparkException](SparkScope.runJob(spark.sparkContext.parallelize(1 to 4, 2), Fails))
    assert(Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .exists(c => c.isInstanceOf[IllegalStateException] && c.getMessage == "partition failed"), e)
  }
}

object SparkScopeSpec {
  /** A partition's index and rows. */
  object Tagged extends ((TaskContext, Iterator[Int]) => (Int, Seq[Int])) with Serializable {
    def apply(task: TaskContext, rows: Iterator[Int]): (Int, Seq[Int]) = (task.partitionId(), rows.toList)
  }

  object Fails extends ((TaskContext, Iterator[Int]) => Int) with Serializable {
    def apply(task: TaskContext, rows: Iterator[Int]): Int = throw new IllegalStateException("partition failed")
  }
}
