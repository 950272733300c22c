lea rdx, [rsi + rdi*8 - 0x8000000000000000]
mov rax, qword ptr [rbx - 9223372036854775808]
