mov rax, qword ptr [rbx - 9223372036854775807 - 1]
mov qword ptr [-9223372036854775807 - 1], rcx
