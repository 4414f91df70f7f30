"""Ray Data stage functions: Arrow-in/Arrow-out batch kernels
(batch_format='pyarrow'), free of Ray so the traced no-Ray replay and
the pipelines run the same code."""
