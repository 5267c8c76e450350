"""Cost analysis (paper §VI): EC2 compute plus S3 storage.

Re-implements the paper's Amazon-Web-Services cost model: runtimes on the
Haswell architecture are scaled to hours/week of an EC2 ``c4.8xlarge``
instance, checkpoint volumes to S3 standard + infrequent-access storage,
with the paper's stated adjustment factors.  Rates are frozen at 2017-era
values so the arithmetic reproduces Table VII.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "AwsRates": "repro.cost.aws",
    "RATES_2017": "repro.cost.aws",
    "CostBreakdown": "repro.cost.aws",
    "ec2_monthly_cost": "repro.cost.aws",
    "s3_monthly_cost": "repro.cost.aws",
    "application_cost": "repro.cost.aws",
})
