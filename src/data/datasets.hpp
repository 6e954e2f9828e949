// Bundled data sets.
//
// The paper evaluates on "System 17" from the DACS/SLED software
// reliability archive (38 failures during system test of a military
// application; also available as failure counts per 64 working days).
// That archive is not redistributable/available offline, so this module
// ships a *documented synthetic stand-in* with the same shape:
//
//   system17_failure_times(): 38 failure times in wall-clock seconds on
//     (0, 160000], generated as the expected order statistics of a
//     Goel-Okumoto process (omega=44, beta=1.26e-5/s) with small seeded
//     jitter — a realization the GO model fits well, like the paper's D_T.
//
//   system17_grouped(): failures per day over 64 working days summing to
//     38, generated by largest-remainder rounding of a delayed S-shaped
//     increment profile — data a GO model fits only mediocrely, like the
//     paper's D_G (this drives the D_G-NoInfo instability reported there).
//
// The NTDS data (Jelinski & Moranda 1972; also used by Goel & Okumoto
// 1979) is included from its published values for the examples.
#pragma once

#include "data/failure_data.hpp"

namespace vbsrm::data::datasets {

/// Synthetic System 17 stand-in, failure-time form (38 failures,
/// t_e = 160000 wall-clock seconds).
FailureTimeData system17_failure_times();

/// Synthetic System 17 stand-in, grouped form (64 working days,
/// 38 failures total, day as the time unit).
GroupedData system17_grouped();

/// NTDS data: cumulative failure times (days) of the first 26 software
/// errors of the Naval Tactical Data System, observed over 250 days.
FailureTimeData ntds_failure_times();

}  // namespace vbsrm::data::datasets
