// Returning freed heap memory to the operating system.
#pragma once

namespace srsr {

/// Hands the allocator's free heap pages back to the operating system
/// (glibc's malloc_trim; a no-op with other C libraries). A freed buffer
/// that sits below live allocations otherwise stays resident, and a later
/// large allocation — served by a fresh mapping — cannot reuse it, so a
/// step that frees tens of MB of transient buffers would keep paying for
/// them in the process's peak memory. Costs a walk of the free lists.
void release_free_memory();

}  // namespace srsr
