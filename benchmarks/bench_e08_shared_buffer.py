"""Benchmark/driver for experiment E8 (Sect. 4): shared buffer memory."""

from repro.experiments import e08_shared_buffer


def test_e08_shared_buffer_table(experiment_runner):
    table = experiment_runner(e08_shared_buffer.run, client_counts=(1, 2, 4, 8, 16))
    ratios = table.column("saving_ratio")
    assert ratios == sorted(ratios)  # saving grows with co-located clients
    assert table.value("saving_ratio", clients=16) > 3.0
    individual = table.column("individual_bytes")
    shared = table.column("shared_bytes")
    assert individual[-1] / individual[0] > 10  # individual memory grows ~linearly
    assert shared[-1] / shared[0] < 5           # shared footprint grows much slower
